//! Call-stack unwinding.
//!
//! In the real framework, `auto-hbwmalloc` calls glibc's `backtrace()` inside
//! every intercepted allocation. In the simulation, the "truth" about which
//! functions are on the stack comes from the workload model as a list of
//! function names (outermost → innermost caller); the unwinder turns that
//! into the raw, ASLR-shifted return addresses the interception library
//! would actually see, and charges a cost proportional to the depth (the
//! Figure-3 scaling).

use crate::aslr::AslrLayout;
use crate::cost::CallstackCostModel;
use crate::module::ProgramImage;
use crate::stack::{CallStack, Frame};
use hmsim_common::{HmError, HmResult, Nanos};

/// A simulated frame-pointer chain walker.
#[derive(Clone, Debug)]
pub struct Unwinder {
    image: ProgramImage,
    aslr: AslrLayout,
    cost_model: CallstackCostModel,
}

impl Unwinder {
    /// Create an unwinder for a process image under an ASLR layout.
    pub fn new(image: ProgramImage, aslr: AslrLayout) -> Self {
        Unwinder {
            image,
            aslr,
            cost_model: CallstackCostModel::default(),
        }
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, model: CallstackCostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// The program image.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// The ASLR layout in effect.
    pub fn aslr(&self) -> &AslrLayout {
        &self.aslr
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CallstackCostModel {
        &self.cost_model
    }

    /// Produce the raw call-stack for an allocation whose logical stack is
    /// `functions` (ordered outermost caller first, allocation call last —
    /// the way a person writes it). The returned [`CallStack`] is innermost
    /// first, as `backtrace()` reports it, with each return address pointing
    /// a few bytes *into* the corresponding function body under the current
    /// ASLR slides.
    ///
    /// Also returns the modelled unwind cost for this depth.
    pub fn unwind(&self, functions: &[&str]) -> HmResult<(CallStack, Nanos)> {
        if functions.is_empty() {
            return Err(HmError::InvalidState(
                "cannot unwind an empty logical call-stack".into(),
            ));
        }
        let mut frames = Vec::with_capacity(functions.len());
        // Innermost first.
        for f in functions.iter().rev() {
            let (module_idx, link_entry) = self
                .image
                .find_function(f)
                .ok_or_else(|| HmError::NotFound(format!("function {f} in program image")))?;
            // Return addresses point just after the call instruction; model
            // that as a small, deterministic offset into the caller.
            let link_ret = link_entry.offset(0x1d);
            frames.push(Frame::new(self.aslr.to_runtime(module_idx, link_ret)));
        }
        let stack = CallStack::new(frames);
        let cost = self.cost_model.unwind_cost(stack.depth());
        Ok((stack, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::DetRng;

    fn unwinder(seed: u64) -> Unwinder {
        let image = ProgramImage::synthetic_hpc_app("app.x", &["spmv", "waxpby"]);
        let aslr = AslrLayout::randomized(&image, &mut DetRng::new(seed));
        Unwinder::new(image, aslr)
    }

    #[test]
    fn unwind_produces_innermost_first_frames() {
        let u = unwinder(1);
        let (stack, cost) = u.unwind(&["main", "allocate_state", "malloc"]).unwrap();
        assert_eq!(stack.depth(), 3);
        assert!(cost.micros() > 0.0);
        // Innermost frame is malloc (libc): resolve it back through ASLR.
        let malloc_frame = stack.frames()[0].return_address;
        let idx = u.aslr().module_of_runtime(u.image(), malloc_frame).unwrap();
        assert_eq!(u.image().module(idx).unwrap().name, "libc.so.6");
        let main_frame = stack.frames()[2].return_address;
        let idx = u.aslr().module_of_runtime(u.image(), main_frame).unwrap();
        assert_eq!(u.image().module(idx).unwrap().name, "app.x");
    }

    #[test]
    fn unwinding_same_site_is_deterministic() {
        let u = unwinder(2);
        let (a, _) = u.unwind(&["main", "initialize", "malloc"]).unwrap();
        let (b, _) = u.unwind(&["main", "initialize", "malloc"]).unwrap();
        assert_eq!(a.raw_hash(), b.raw_hash());
        let (c, _) = u.unwind(&["main", "allocate_state", "malloc"]).unwrap();
        assert_ne!(a.raw_hash(), c.raw_hash());
    }

    #[test]
    fn different_aslr_layouts_give_different_raw_stacks() {
        let u1 = unwinder(10);
        let u2 = unwinder(11);
        let (a, _) = u1.unwind(&["main", "malloc"]).unwrap();
        let (b, _) = u2.unwind(&["main", "malloc"]).unwrap();
        assert_ne!(a.raw_hash(), b.raw_hash());
    }

    #[test]
    fn unknown_function_is_an_error() {
        let u = unwinder(3);
        assert!(u.unwind(&["main", "no_such_fn", "malloc"]).is_err());
        assert!(u.unwind(&[]).is_err());
    }

    #[test]
    fn cost_scales_with_depth() {
        let u = unwinder(4);
        let (_, shallow) = u.unwind(&["malloc"]).unwrap();
        let (_, deep) = u
            .unwind(&["main", "initialize", "allocate_state", "spmv", "malloc"])
            .unwrap();
        assert!(deep > shallow);
    }
}

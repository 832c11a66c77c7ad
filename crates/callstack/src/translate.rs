//! Call-stack translation (the binutils/`addr2line` analogue).
//!
//! Translation converts the raw, ASLR-shifted return addresses produced by
//! the unwinder back into `(module, function, offset, source line)` form so
//! they can be matched against the advisor's report. Each frame requires
//! finding the owning module (undoing its slide) and a symbol-table lookup —
//! strictly more work per frame than the unwind itself, which is why the
//! translation curve in Figure 3 grows faster and overtakes unwinding at
//! depth ≈ 6.

use crate::aslr::AslrLayout;
use crate::cost::CallstackCostModel;
use crate::module::ProgramImage;
use crate::stack::{CallStack, TranslatedCallStack, TranslatedFrame};
use hmsim_common::Nanos;

/// Translator bound to a process image and its ASLR layout.
#[derive(Clone, Debug)]
pub struct Translator {
    image: ProgramImage,
    aslr: AslrLayout,
}

impl Translator {
    /// Create a translator.
    pub fn new(image: ProgramImage, aslr: AslrLayout) -> Self {
        Translator { image, aslr }
    }

    /// Translate one raw call-stack. Frames whose address cannot be resolved
    /// are kept with `"??"` placeholders (matching `addr2line` behaviour)
    /// rather than dropped, so depths always match.
    ///
    /// Returns the translated stack and the modelled translation cost.
    pub fn translate(&self, stack: &CallStack) -> (TranslatedCallStack, Nanos) {
        let frames = stack
            .frames()
            .iter()
            .map(|frame| {
                let addr = frame.return_address;
                match self.aslr.module_of_runtime(&self.image, addr) {
                    Some(idx) => {
                        let module = self.image.module(idx).expect("index from lookup");
                        let link = self.aslr.to_link(idx, addr);
                        let offset = link - module.link_base;
                        match module.symbols.by_offset(offset) {
                            Some(sym) => TranslatedFrame {
                                module: module.name.clone(),
                                function: sym.name.clone(),
                                offset_in_function: offset - sym.offset,
                                source_file: sym.source_file.clone(),
                                line: sym.line + (offset - sym.offset) / 16,
                            },
                            None => TranslatedFrame {
                                module: module.name.clone(),
                                function: "??".to_string(),
                                offset_in_function: offset,
                                source_file: "??".to_string(),
                                line: 0,
                            },
                        }
                    }
                    None => TranslatedFrame {
                        module: "??".to_string(),
                        function: "??".to_string(),
                        offset_in_function: addr.value(),
                        source_file: "??".to_string(),
                        line: 0,
                    },
                }
            })
            .collect();
        let translated = TranslatedCallStack::new(frames);
        let cost = CallstackCostModel::knl_7250().translate_cost(stack.depth());
        (translated, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unwind::Unwinder;
    use hmsim_common::{Address, DetRng};

    fn setup(seed: u64) -> (Unwinder, Translator) {
        let image = ProgramImage::synthetic_hpc_app("app.x", &["spmv", "waxpby"]);
        let aslr = AslrLayout::randomized(&image, &mut DetRng::new(seed));
        (
            Unwinder::new(image.clone(), aslr.clone()),
            Translator::new(image, aslr),
        )
    }

    #[test]
    fn translation_recovers_function_names() {
        let (u, t) = setup(1);
        let (raw, _) = u.unwind(&["main", "allocate_state", "malloc"]).unwrap();
        let (translated, cost) = t.translate(&raw);
        assert_eq!(translated.depth(), 3);
        assert!(cost.micros() > 0.0);
        let names: Vec<&str> = translated
            .frames()
            .iter()
            .map(|f| f.function.as_str())
            .collect();
        assert_eq!(names, vec!["malloc", "allocate_state", "main"]);
        assert_eq!(translated.frames()[0].module, "libc.so.6");
        assert_eq!(translated.frames()[1].module, "app.x");
    }

    #[test]
    fn site_keys_are_stable_across_aslr_layouts() {
        let (u1, t1) = setup(100);
        let (u2, t2) = setup(200);
        let site = ["main", "initialize", "allocate_state", "malloc"];
        let (raw1, _) = u1.unwind(&site).unwrap();
        let (raw2, _) = u2.unwind(&site).unwrap();
        assert_ne!(
            raw1.raw_hash(),
            raw2.raw_hash(),
            "raw stacks differ under ASLR"
        );
        let (tr1, _) = t1.translate(&raw1);
        let (tr2, _) = t2.translate(&raw2);
        assert_eq!(
            tr1.site_key(),
            tr2.site_key(),
            "translated sites must match"
        );
    }

    #[test]
    fn unresolvable_addresses_become_unknown_frames() {
        let (_, t) = setup(3);
        let raw = CallStack::new(vec![crate::stack::Frame::new(Address(0x7fff_dead_0000))]);
        let (tr, _) = t.translate(&raw);
        assert_eq!(tr.depth(), 1);
        assert_eq!(tr.frames()[0].function, "??");
        assert_eq!(tr.frames()[0].module, "??");
    }

    #[test]
    fn translation_cost_exceeds_unwind_cost_for_deep_stacks() {
        let (u, t) = setup(4);
        let deep = [
            "main",
            "initialize",
            "allocate_state",
            "spmv",
            "waxpby",
            "MPI_Allreduce",
            "__kmp_fork_call",
            "kmp_malloc",
            "malloc",
        ];
        let (raw, unwind_cost) = u.unwind(&deep).unwrap();
        let (_, translate_cost) = t.translate(&raw);
        assert!(translate_cost > unwind_cost);
        // And the opposite for a depth-1 stack (Figure 3 crossover).
        let (raw1, unwind1) = u.unwind(&["malloc"]).unwrap();
        let (_, translate1) = t.translate(&raw1);
        assert!(unwind1 > translate1);
    }
}

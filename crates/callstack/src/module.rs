//! Program image: the set of loaded modules (main executable plus shared
//! libraries) making up one simulated process.

use crate::symbols::{Symbol, SymbolTable};
use hmsim_common::{Address, ByteSize, HmError, HmResult};

/// One loaded module (executable or shared library).
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name, e.g. `"libhpcg.so"` or `"a.out"`.
    pub name: String,
    /// Link-time base address (what the symbol table is relative to).
    pub link_base: Address,
    /// Size of the module's text segment.
    pub size: ByteSize,
    /// The module's symbol table (offsets relative to `link_base`).
    pub symbols: SymbolTable,
}

impl Module {
    /// Create a module with the given symbols.
    pub fn new(
        name: impl Into<String>,
        link_base: Address,
        size: ByteSize,
        symbols: SymbolTable,
    ) -> Self {
        Module {
            name: name.into(),
            link_base,
            size,
            symbols,
        }
    }

    /// Whether a *link-time* address falls inside this module.
    pub fn contains_link_address(&self, addr: Address) -> bool {
        addr >= self.link_base && addr < self.link_base.offset(self.size.bytes())
    }
}

/// A whole program image: an ordered collection of modules.
#[derive(Clone, Debug, Default)]
pub struct ProgramImage {
    modules: Vec<Module>,
}

impl ProgramImage {
    /// Create an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a module; rejects overlapping link-time ranges.
    pub fn add_module(&mut self, module: Module) -> HmResult<usize> {
        for existing in &self.modules {
            let existing_end = existing.link_base.offset(existing.size.bytes());
            let new_end = module.link_base.offset(module.size.bytes());
            if module.link_base < existing_end && existing.link_base < new_end {
                return Err(HmError::Config(format!(
                    "module {} overlaps {} in link-time address space",
                    module.name, existing.name
                )));
            }
        }
        self.modules.push(module);
        Ok(self.modules.len() - 1)
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether there are no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// All modules.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Module by index.
    pub fn module(&self, idx: usize) -> Option<&Module> {
        self.modules.get(idx)
    }

    /// Find a module by name.
    pub fn by_name(&self, name: &str) -> Option<(usize, &Module)> {
        self.modules
            .iter()
            .enumerate()
            .find(|(_, m)| m.name == name)
    }

    /// Find a function by name anywhere in the image; returns the module
    /// index and the link-time address of the function entry.
    pub fn find_function(&self, function: &str) -> Option<(usize, Address)> {
        for (idx, m) in self.modules.iter().enumerate() {
            if let Some(sym) = m.symbols.by_name(function) {
                return Some((idx, m.link_base.offset(sym.offset)));
            }
        }
        None
    }

    /// Build a small synthetic image resembling an HPC application: a main
    /// executable with numerical kernels, an MPI library, an OpenMP runtime
    /// and libc. Useful for tests and as the default image behind the
    /// workload models.
    pub fn synthetic_hpc_app(app_name: &str, kernel_functions: &[&str]) -> ProgramImage {
        let mut image = ProgramImage::new();

        let mut main_syms = vec![
            Symbol::new("main", 0x0, 0x400, "main.cpp", 12),
            Symbol::new("initialize", 0x400, 0x800, "setup.cpp", 40),
            Symbol::new("allocate_state", 0xc00, 0x400, "setup.cpp", 128),
            Symbol::new("finalize", 0x1000, 0x200, "main.cpp", 210),
        ];
        let mut offset = 0x1400u64;
        for f in kernel_functions {
            main_syms.push(Symbol::new(
                *f,
                offset,
                0x600,
                "kernels.cpp",
                30 + offset / 0x100,
            ));
            offset += 0x600;
        }
        let main_size = ByteSize::from_bytes((offset + 0x1000).next_multiple_of(0x1000));
        image
            .add_module(Module::new(
                app_name,
                Address(0x400000),
                main_size,
                SymbolTable::new(main_syms),
            ))
            .expect("main module does not overlap");

        image
            .add_module(Module::new(
                "libmpi.so",
                Address(0x10000000),
                ByteSize::from_kib(512),
                SymbolTable::new(vec![
                    Symbol::new("MPI_Init", 0x0, 0x200, "init.c", 55),
                    Symbol::new("MPI_Allreduce", 0x200, 0x400, "coll.c", 310),
                    Symbol::new("MPI_Finalize", 0x600, 0x100, "init.c", 300),
                ]),
            ))
            .expect("libmpi does not overlap");

        image
            .add_module(Module::new(
                "libiomp5.so",
                Address(0x20000000),
                ByteSize::from_kib(256),
                SymbolTable::new(vec![
                    Symbol::new("__kmp_fork_call", 0x0, 0x300, "kmp_runtime.cpp", 1500),
                    Symbol::new("kmp_malloc", 0x300, 0x100, "kmp_alloc.cpp", 77),
                    Symbol::new(
                        "__kmp_invoke_microtask",
                        0x400,
                        0x200,
                        "kmp_runtime.cpp",
                        2200,
                    ),
                ]),
            ))
            .expect("libiomp5 does not overlap");

        image
            .add_module(Module::new(
                "libc.so.6",
                Address(0x30000000),
                ByteSize::from_kib(1024),
                SymbolTable::new(vec![
                    Symbol::new("malloc", 0x0, 0x180, "malloc.c", 3051),
                    Symbol::new("calloc", 0x180, 0x100, "malloc.c", 3380),
                    Symbol::new("realloc", 0x280, 0x140, "malloc.c", 3210),
                    Symbol::new("free", 0x3c0, 0x100, "malloc.c", 2960),
                    Symbol::new("posix_memalign", 0x4c0, 0x100, "malloc.c", 3420),
                    Symbol::new("backtrace", 0x5c0, 0x100, "backtrace.c", 40),
                ]),
            ))
            .expect("libc does not overlap");

        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_image_contains_expected_modules() {
        let img = ProgramImage::synthetic_hpc_app("hpcg.x", &["spmv", "symgs", "dot"]);
        assert_eq!(img.len(), 4);
        assert!(img.by_name("libc.so.6").is_some());
        assert!(img.by_name("hpcg.x").is_some());
        assert!(!img.is_empty());
    }

    #[test]
    fn find_function_returns_link_address() {
        let img = ProgramImage::synthetic_hpc_app("app", &["kernel_a"]);
        let (midx, addr) = img.find_function("malloc").unwrap();
        let module = img.module(midx).unwrap();
        assert_eq!(module.name, "libc.so.6");
        assert_eq!(addr, module.link_base);
        assert!(img.find_function("does_not_exist").is_none());
    }

    #[test]
    fn overlapping_modules_rejected() {
        let mut img = ProgramImage::new();
        img.add_module(Module::new(
            "a",
            Address(0x1000),
            ByteSize::from_kib(8),
            SymbolTable::new(vec![]),
        ))
        .unwrap();
        let err = img.add_module(Module::new(
            "b",
            Address(0x2000),
            ByteSize::from_kib(8),
            SymbolTable::new(vec![]),
        ));
        assert!(err.is_err());
    }
}

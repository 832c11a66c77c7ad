//! Per-module symbol tables.
//!
//! The translator resolves module-relative offsets to function names and
//! source locations the same way the paper uses binutils (`addr2line`-style
//! lookups) on top of the debug information generated with `-g`.

use std::collections::HashMap;

/// One function symbol with debug information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Function name (already demangled).
    pub name: String,
    /// Offset of the function entry relative to the module base.
    pub offset: u64,
    /// Size of the function body in bytes.
    pub size: u64,
    /// Source file the function is defined in.
    pub source_file: String,
    /// Line number of the function definition.
    pub line: u64,
}

impl Symbol {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        offset: u64,
        size: u64,
        source_file: impl Into<String>,
        line: u64,
    ) -> Self {
        Symbol {
            name: name.into(),
            offset,
            size,
            source_file: source_file.into(),
            line,
        }
    }

    /// Whether a module-relative offset falls inside this function.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.offset && offset < self.offset + self.size
    }
}

/// A module's symbol table, sorted by offset for binary search.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    symbols: Vec<Symbol>,
    by_name: HashMap<String, usize>,
}

impl SymbolTable {
    /// Build a table from symbols (sorted internally by offset).
    pub fn new(mut symbols: Vec<Symbol>) -> Self {
        symbols.sort_by_key(|s| s.offset);
        let by_name = symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        SymbolTable { symbols, by_name }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// All symbols in offset order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Look up the symbol covering a module-relative offset (binary search).
    pub fn by_offset(&self, offset: u64) -> Option<&Symbol> {
        let idx = self.symbols.partition_point(|s| s.offset <= offset);
        if idx == 0 {
            return None;
        }
        let candidate = &self.symbols[idx - 1];
        candidate.contains(offset).then_some(candidate)
    }

    /// Look up a symbol by function name.
    pub fn by_name(&self, name: &str) -> Option<&Symbol> {
        self.by_name.get(name).map(|i| &self.symbols[*i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        SymbolTable::new(vec![
            Symbol::new("beta", 0x100, 0x80, "b.c", 20),
            Symbol::new("alpha", 0x0, 0x100, "a.c", 10),
            Symbol::new("gamma", 0x200, 0x40, "c.c", 5),
        ])
    }

    #[test]
    fn lookup_by_offset_finds_covering_symbol() {
        let t = table();
        assert_eq!(t.by_offset(0x0).unwrap().name, "alpha");
        assert_eq!(t.by_offset(0xff).unwrap().name, "alpha");
        assert_eq!(t.by_offset(0x100).unwrap().name, "beta");
        assert_eq!(t.by_offset(0x17f).unwrap().name, "beta");
        // Gap between beta (ends 0x180) and gamma (starts 0x200).
        assert!(t.by_offset(0x190).is_none());
        assert_eq!(t.by_offset(0x210).unwrap().name, "gamma");
        assert!(t.by_offset(0x400).is_none());
    }

    #[test]
    fn lookup_by_name() {
        let t = table();
        assert_eq!(t.by_name("gamma").unwrap().offset, 0x200);
        assert!(t.by_name("delta").is_none());
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn symbols_are_sorted_after_construction() {
        let t = table();
        let offsets: Vec<u64> = t.symbols().iter().map(|s| s.offset).collect();
        assert_eq!(offsets, vec![0x0, 0x100, 0x200]);
    }
}

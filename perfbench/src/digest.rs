//! Output checks: every simulated run is reduced to a [`Record`] of exact
//! fields (`f64` values as their bit patterns), and a pass's records are
//! compared against a reference set — the same run's first pass, another
//! path to the same result, or the digests committed next to this file.

use hmem_core::RunResult;
use hmsim_machine::PerfCounters;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The exact fields of one run, in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Record(pub Vec<(String, String)>);

impl Record {
    pub fn field(mut self, name: &str, value: impl ToString) -> Self {
        self.0.push((name.to_string(), value.to_string()));
        self
    }

    /// An `f64` recorded by its bit pattern, so equality is bitwise.
    pub fn bits(self, name: &str, value: f64) -> Self {
        self.field(name, format!("{:016x}", value.to_bits()))
    }

    pub fn counters(self, c: &PerfCounters) -> Self {
        self.field("instructions", c.instructions)
            .field("l1_refs", c.l1_references)
            .field("l1_misses", c.l1_misses)
            .field("llc_refs", c.llc_references)
            .field("llc_misses", c.llc_misses)
            .field("stall_cycles", c.stall_cycles)
            .field("cycles", c.cycles)
    }

    /// Everything a single-process run reports that is not host timing.
    pub fn run_result(r: &RunResult) -> Self {
        Record::default()
            .bits("fom", r.fom)
            .bits("time", r.total_time.nanos())
            .counters(&r.counters)
            .field("migrations", r.migrations)
            .bits("migration_time", r.migration_time.nanos())
            .field("rejected", r.migrations_rejected)
            .field("hwm", r.mcdram_hwm.bytes())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Records keyed by run name.
pub type Digest = BTreeMap<String, Record>;

/// Compare `got` against `expected`. Every run of either side must exist on
/// the other, and every field `got` reports must equal the expected field
/// of the same name (so a pass that sees only part of a run's outcome is
/// still checked on what it sees). Returns one message per diverging run,
/// naming its first diverging field.
pub fn compare(what: &str, expected: &Digest, got: &Digest) -> Vec<String> {
    let mut failures = Vec::new();
    for name in expected.keys().filter(|k| !got.contains_key(*k)) {
        failures.push(format!("{what}: run {name} missing"));
    }
    for (name, record) in got {
        let Some(want) = expected.get(name) else {
            failures.push(format!("{what}: unexpected run {name}"));
            continue;
        };
        let diverged = record
            .0
            .iter()
            .find(|(field, value)| want.get(field) != Some(value.as_str()));
        if let Some((field, value)) = diverged {
            failures.push(format!(
                "{what}: run {name} diverged at {field}: expected {}, got {value}",
                want.get(field).unwrap_or("<absent>")
            ));
        }
    }
    failures
}

/// Directory holding the committed digests.
pub fn digest_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("digests")
}

/// Render a digest as text: one run per line, `name field=value ...`.
pub fn render(header: &str, digest: &Digest) -> String {
    let mut out = format!("# {header}\n");
    for (name, record) in digest {
        out.push_str(name);
        for (field, value) in &record.0 {
            out.push_str(&format!(" {field}={value}"));
        }
        out.push('\n');
    }
    out
}

/// Parse the text form written by [`render`].
pub fn parse(text: &str) -> Result<Digest, String> {
    let mut digest = Digest::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut parts = line.split(' ');
        let name = parts.next().unwrap_or_default().to_string();
        let mut record = Record::default();
        for part in parts {
            let (field, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed field {part:?} in run {name}"))?;
            record = record.field(field, value);
        }
        digest.insert(name, record);
    }
    Ok(digest)
}

/// Load the committed digest `file`, if present.
pub fn load(file: &str) -> Result<Digest, String> {
    let path = digest_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text)
}

/// Write `digest` as the committed digest `file`.
pub fn bless(file: &str, header: &str, digest: &Digest) -> std::io::Result<PathBuf> {
    let dir = digest_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, render(header, digest))?;
    Ok(path)
}

/// A stable 64-bit FNV-1a hash (for folding many values into one field).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> Digest {
        let mut d = Digest::new();
        d.insert(
            "a".into(),
            Record::default().bits("fom", 1.5).field("hwm", 4096),
        );
        d.insert("b".into(), Record::default().field("migrations", 3));
        d
    }

    #[test]
    fn text_form_round_trips() {
        let d = digest();
        assert_eq!(parse(&render("test", &d)).unwrap(), d);
    }

    #[test]
    fn compare_names_the_first_diverging_field() {
        let want = digest();
        assert!(compare("t", &want, &want).is_empty());
        let mut got = want.clone();
        got.insert(
            "a".into(),
            Record::default().bits("fom", 1.5).field("hwm", 0),
        );
        let f = compare("t", &want, &got);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("diverged at hwm"), "{f:?}");
        got.remove("b");
        assert_eq!(compare("t", &want, &got).len(), 2);
    }

    #[test]
    fn a_partial_record_is_checked_on_its_own_fields() {
        let want = digest();
        let mut got = Digest::new();
        got.insert("a".into(), Record::default().bits("fom", 1.5));
        got.insert("b".into(), Record::default());
        assert!(compare("t", &want, &got).is_empty());
    }
}

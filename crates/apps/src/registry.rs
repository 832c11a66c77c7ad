//! Registry of the evaluated applications.

use crate::apps;
use crate::spec::AppSpec;
use hmsim_common::{HmError, HmResult};

/// All eight applications of the paper's evaluation, in Table I order.
pub fn all_apps() -> Vec<AppSpec> {
    vec![
        apps::hpcg::spec(),
        apps::lulesh::spec(),
        apps::nas_bt::spec(),
        apps::minife::spec(),
        apps::cgpop::spec(),
        apps::snap::spec(),
        apps::maxw_dgtd::spec(),
        apps::gtcp::spec(),
    ]
}

/// Look an application up by (case-insensitive) name.
///
/// An unknown name is a typed [`HmError::Config`] listing every registered
/// application, so callers parsing user input (scenario files, example CLI
/// arguments) can surface an actionable message instead of a bare `None`.
pub fn app_by_name(name: &str) -> HmResult<AppSpec> {
    all_apps()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let candidates: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
            HmError::Config(format!(
                "unknown application {name:?}; candidates: {}",
                candidates.join(", ")
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_eight_apps_are_present_and_valid() {
        let apps = all_apps();
        assert_eq!(apps.len(), 8);
        let names: HashSet<&str> = apps.iter().map(|a| a.name).collect();
        for expected in [
            "HPCG",
            "Lulesh",
            "BT",
            "miniFE",
            "CGPOP",
            "SNAP",
            "MAXW-DGTD",
            "GTC-P",
        ] {
            assert!(names.contains(expected), "missing {expected}");
        }
        for app in &apps {
            app.validate().unwrap();
        }
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(app_by_name("hpcg").is_ok());
        assert!(app_by_name("GTC-P").is_ok());
        let err = app_by_name("does-not-exist").unwrap_err();
        assert!(
            matches!(err, hmsim_common::HmError::Config(_)),
            "expected a typed configuration error, got {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("does-not-exist"), "{msg}");
        assert!(
            msg.contains("candidates") && msg.contains("miniFE") && msg.contains("GTC-P"),
            "{msg}"
        );
    }

    #[test]
    fn geometries_match_table1() {
        let bt = app_by_name("BT").unwrap();
        assert_eq!((bt.ranks, bt.threads_per_rank), (1, 272));
        let cgpop = app_by_name("CGPOP").unwrap();
        assert_eq!((cgpop.ranks, cgpop.threads_per_rank), (64, 1));
        for name in ["HPCG", "Lulesh", "miniFE", "SNAP", "MAXW-DGTD", "GTC-P"] {
            let a = app_by_name(name).unwrap();
            assert_eq!((a.ranks, a.threads_per_rank), (64, 4), "{name}");
        }
    }

    #[test]
    fn every_app_has_a_distinct_dominant_object_structure() {
        // Sanity: each app has at least 5 objects and at least one dynamic
        // object with a meaningful miss share.
        for app in all_apps() {
            assert!(app.objects.len() >= 5, "{} too few objects", app.name);
            let max_dynamic = app
                .dynamic_objects()
                .map(|o| app.miss_fraction(o.name))
                .fold(0.0f64, f64::max);
            assert!(max_dynamic > 0.1, "{} lacks a hot dynamic object", app.name);
        }
    }
}

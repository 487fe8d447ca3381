//! Output checks: what a report must say for a generated design.

use std::collections::BTreeMap;
use std::path::Path;

use odrc::Violation;
use odrc_infra::fnv1a64;

use crate::gen::Truth;
use crate::metrics::Outcome;

/// Exit code of a completed check that found violations.
pub const EXIT_VIOLATIONS: i32 = 1;

/// The CLI's `--report` CSV for `violations` (same bytes as
/// `odrc --report` and `JobOutcome::report_csv`).
pub fn report_csv(violations: &[Violation]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("rule,kind,x0,y0,x1,y1,measured\n");
    for v in violations {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            v.rule,
            v.kind,
            v.location.lo().x,
            v.location.lo().y,
            v.location.hi().x,
            v.location.hi().y,
            v.measured
        );
    }
    out
}

/// Violations per rule name in a report CSV.
pub fn rule_counts(csv: &str) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for line in csv.lines().skip(1) {
        if let Some((rule, _)) = line.split_once(',') {
            *counts.entry(rule).or_insert(0) += 1;
        }
    }
    counts
}

/// Checks a report of the benchmark deck against the generator's
/// ground truth: injected width and area violations are found exactly,
/// space and enclosure at least, and `M1.S.1` reports the known-answer
/// strip and nothing else.
pub fn check_truth(outcome: &mut Outcome, what: &str, csv: &str, truth: &Truth) {
    let counts = rule_counts(csv);
    let sum = |rules: &[&str]| -> usize {
        rules
            .iter()
            .map(|r| counts.get(r).copied().unwrap_or(0))
            .sum()
    };
    let width = sum(&["M1.W.1", "M2.W.1", "M3.W.1"]);
    let area = sum(&["M1.A.1"]);
    let space = sum(&["M2.S.1", "M3.S.1"]);
    let enclosure = sum(&["V1.M1.EN.1", "V1.M2.EN.1", "V2.M2.EN.1", "V2.M3.EN.1"]);
    let m1_space = sum(&["M1.S.1"]);
    let inj = truth.injected;
    outcome.check(width == inj.width, || {
        format!("{what}: {width} width violations, {} injected", inj.width)
    });
    outcome.check(area == inj.area, || {
        format!("{what}: {area} area violations, {} injected", inj.area)
    });
    outcome.check(space >= inj.space, || {
        format!("{what}: {space} space violations, {} injected", inj.space)
    });
    outcome.check(enclosure >= inj.enclosure, || {
        format!(
            "{what}: {enclosure} enclosure violations, {} injected",
            inj.enclosure
        )
    });
    outcome.check(m1_space == truth.m1_space, || {
        format!(
            "{what}: {m1_space} M1.S.1 violations, {} drawn in the strip",
            truth.m1_space
        )
    });
}

/// Checks `bytes` against the committed golden hash `key` for `seed`,
/// when `<golden>/seed<seed>.txt` exists (it does for seed 1). The hash
/// is printed either way, which is how a golden file is made.
pub fn check_golden(outcome: &mut Outcome, golden: &Path, seed: u64, key: &str, bytes: &[u8]) {
    let got = format!("{:016x}", fnv1a64(bytes));
    eprintln!("report hash: {key} {got}");
    let path = golden.join(format!("seed{seed}.txt"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let want = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.trim().to_owned());
    outcome.check(want.as_deref() == Some(got.as_str()), || {
        format!(
            "{key}: report hash {got}, golden {want:?} ({})",
            path.display()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrc_layoutgen::InjectionStats;

    #[test]
    fn counts_by_rule_and_truth() {
        let csv = "rule,kind,x0,y0,x1,y1,measured\n\
                   M1.W.1,width,0,0,1,1,5\n\
                   M2.W.1,width,0,0,1,1,5\n\
                   M1.S.1,space,0,0,1,1,289\n";
        let counts = rule_counts(csv);
        assert_eq!(counts["M1.W.1"], 1);
        assert_eq!(counts.len(), 3);
        let truth = Truth {
            injected: InjectionStats {
                width: 2,
                ..InjectionStats::default()
            },
            m1_space: 1,
        };
        let mut ok = Outcome::default();
        check_truth(&mut ok, "t", csv, &truth);
        assert_eq!((ok.attempted, ok.failed), (5, 0));
        let mut bad = Outcome::default();
        check_truth(
            &mut bad,
            "t",
            csv,
            &Truth {
                m1_space: 2,
                ..truth
            },
        );
        assert_eq!(bad.failed, 1);
        assert!(bad.notes[0].contains("M1.S.1"));
    }
}

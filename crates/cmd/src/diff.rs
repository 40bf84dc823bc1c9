//! Command-by-command diffing of two campaign logs.
//!
//! The point of journaling through one instruction set is that "what did
//! this run actually do, and how does it differ from that run?" becomes a
//! question about two command sequences. [`render_diff`] aligns them with
//! a longest-common-subsequence walk over their stable one-line
//! descriptions and renders a unified-style listing: editing one axis of a
//! campaign shows up as exactly the `execute-cell` lines of the cells that
//! contain it — auditable, not implicit.

use crate::journal::LogRecord;

/// How many `-`/`+` lines are rendered before eliding the rest.
const DIFF_LINE_CAP: usize = 64;

/// Past this many pairwise comparisons the LCS table is skipped in favour
/// of a set-based summary (quadratic memory is real; campaign logs this
/// long are already unreadable as line diffs).
const LCS_CELL_CAP: usize = 4_000_000;

/// Renders a command-by-command diff of two logs.
pub fn render_diff(a_name: &str, a: &[LogRecord], b_name: &str, b: &[LogRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("--- {a_name} ({} commands)\n", a.len()));
    out.push_str(&format!("+++ {b_name} ({} commands)\n", b.len()));
    out.push_str(&summary_line(a, b));

    let a_lines: Vec<String> = a.iter().map(|r| r.command.describe()).collect();
    let b_lines: Vec<String> = b.iter().map(|r| r.command.describe()).collect();
    if a_lines.len().saturating_mul(b_lines.len()) > LCS_CELL_CAP {
        out.push_str(&set_diff(&a_lines, &b_lines));
        return out;
    }

    let mut removed = 0usize;
    let mut added = 0usize;
    let mut common = 0usize;
    let mut elided = false;
    for op in lcs_walk(&a_lines, &b_lines) {
        match op {
            DiffOp::Common => common += 1,
            DiffOp::Removed(line) => {
                removed += 1;
                if removed + added <= DIFF_LINE_CAP {
                    out.push_str(&format!("- {line}\n"));
                } else {
                    elided = true;
                }
            }
            DiffOp::Added(line) => {
                added += 1;
                if removed + added <= DIFF_LINE_CAP {
                    out.push_str(&format!("+ {line}\n"));
                } else {
                    elided = true;
                }
            }
        }
    }
    if elided {
        out.push_str(&format!(
            "  … {} more differing lines elided\n",
            (removed + added) - DIFF_LINE_CAP
        ));
    }
    out.push_str(&format!(
        "= {common} common, {removed} only in {a_name}, {added} only in {b_name}\n"
    ));
    out
}

/// Per-operation counts for both logs, so the diff header answers "what
/// kind of run was each" at a glance.
fn summary_line(a: &[LogRecord], b: &[LogRecord]) -> String {
    fn counts(records: &[LogRecord]) -> String {
        let mut pairs: Vec<(&'static str, usize)> = Vec::new();
        for record in records {
            let op = record.command.op();
            match pairs.iter_mut().find(|(name, _)| *name == op) {
                Some((_, n)) => *n += 1,
                None => pairs.push((op, 1)),
            }
        }
        if pairs.is_empty() {
            return "empty".to_string();
        }
        pairs
            .iter()
            .map(|(name, n)| format!("{n} {name}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
    format!("  ops: {} | {}\n", counts(a), counts(b))
}

enum DiffOp<'a> {
    Common,
    Removed(&'a str),
    Added(&'a str),
}

/// Classic LCS alignment over description lines.
fn lcs_walk<'a>(a: &'a [String], b: &'a [String]) -> Vec<DiffOp<'a>> {
    let n = a.len();
    let m = b.len();
    // lcs[i][j] = LCS length of a[i..] and b[j..].
    let mut lcs = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[idx(i, j)] = if a[i] == b[j] {
                lcs[idx(i + 1, j + 1)] + 1
            } else {
                lcs[idx(i + 1, j)].max(lcs[idx(i, j + 1)])
            };
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push(DiffOp::Common);
            i += 1;
            j += 1;
        } else if lcs[idx(i + 1, j)] >= lcs[idx(i, j + 1)] {
            ops.push(DiffOp::Removed(&a[i]));
            i += 1;
        } else {
            ops.push(DiffOp::Added(&b[j]));
            j += 1;
        }
    }
    ops.extend(a[i..].iter().map(|line| DiffOp::Removed(line)));
    ops.extend(b[j..].iter().map(|line| DiffOp::Added(line)));
    ops
}

/// Fallback for very long logs: unordered multiset difference.
fn set_diff(a: &[String], b: &[String]) -> String {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for line in a {
        *counts.entry(line).or_insert(0) += 1;
    }
    for line in b {
        *counts.entry(line).or_insert(0) -= 1;
    }
    let mut out = String::from("  (logs too long for ordered diff; multiset summary)\n");
    let mut shown = 0usize;
    let mut suppressed = 0usize;
    for (line, n) in counts {
        if n == 0 {
            continue;
        }
        if shown >= DIFF_LINE_CAP {
            suppressed += 1;
            continue;
        }
        shown += 1;
        if n > 0 {
            out.push_str(&format!("- {line} (×{n})\n"));
        } else {
            out.push_str(&format!("+ {line} (×{})\n", -n));
        }
    }
    if suppressed > 0 {
        out.push_str(&format!("  … {suppressed} more differing lines elided\n"));
    }
    out
}

/// Convenience: reads two journal directories and renders their diff.
pub fn diff_journal_dirs(
    a_name: &str,
    a_dir: &std::path::Path,
    b_name: &str,
    b_dir: &std::path::Path,
) -> std::io::Result<String> {
    let (a, a_tail) = crate::journal::read_log(a_dir)?;
    let (b, b_tail) = crate::journal::read_log(b_dir)?;
    let mut out = String::new();
    if !a_tail.clean {
        out.push_str(&format!("  note: {a_name} has a torn tail\n"));
    }
    if !b_tail.clean {
        out.push_str(&format!("  note: {b_name} has a torn tail\n"));
    }
    out.push_str(&render_diff(a_name, &a, b_name, &b));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;
    use rackfabric_sweep::key::JobKey;

    /// Wraps bare commands as sequenced records.
    fn as_records(commands: Vec<Command>) -> Vec<LogRecord> {
        commands
            .into_iter()
            .enumerate()
            .map(|(seq, command)| LogRecord {
                seq: seq as u64,
                command,
            })
            .collect()
    }

    fn cell(i: u128) -> Command {
        Command::ExecuteCell {
            key: JobKey(i),
            spec_json: format!("{{\"seed\":{i}}}"),
        }
    }

    #[test]
    fn identical_logs_diff_to_zero_changes() {
        let log = as_records(vec![
            Command::ExpandMatrix {
                campaign: "c".into(),
                cells: 2,
                jobs: 2,
            },
            cell(1),
            cell(2),
        ]);
        let text = render_diff("a", &log, "b", &log);
        assert!(text.contains("= 3 common, 0 only in a, 0 only in b"));
        assert!(!text.contains("\n- "));
        assert!(!text.contains("\n+ "));
    }

    #[test]
    fn an_edited_axis_shows_only_its_cells() {
        // Run A executed cells 1,2,3; run B (one axis value changed)
        // re-used 1 and executed 4,5 fresh.
        let a = as_records(vec![cell(1), cell(2), cell(3)]);
        let b = as_records(vec![cell(1), cell(4), cell(5)]);
        let text = render_diff("a", &a, "b", &b);
        assert!(text.contains(&format!("- {}", cell(2).describe())));
        assert!(text.contains(&format!("- {}", cell(3).describe())));
        assert!(text.contains(&format!("+ {}", cell(4).describe())));
        assert!(text.contains(&format!("+ {}", cell(5).describe())));
        assert!(text.contains("= 1 common, 2 only in a, 2 only in b"));
    }

    #[test]
    fn long_line_runs_are_capped() {
        let a = as_records((0..200).map(cell).collect());
        let b = as_records((200..400).map(cell).collect());
        let text = render_diff("a", &a, "b", &b);
        assert!(text.contains("more differing lines elided"));
        assert!(text.lines().count() < 80);
    }
}

//! # browsix-bench — the binaries that regenerate the paper's tables and figures
//!
//! Each experiment from the paper's evaluation has a **report binary** under
//! `src/bin/` that prints the same rows the paper reports, runnable with
//! `cargo run -p browsix-bench --bin <name>`.  The functions here build the
//! workloads and environments those binaries share.  Performance is measured
//! end to end and layer by layer by `perfbench/`, a package of its own.

pub mod features;
pub mod loc;
pub mod syscalls;
pub mod utilities;
mod workloads;

pub use features::environment_feature_table;
pub use loc::count_workspace_lines;
pub use syscalls::syscall_inventory;

/// Formats a duration in seconds with millisecond precision, as the paper's
/// tables do.
pub fn fmt_seconds(duration: std::time::Duration) -> String {
    format!("{:.3}s", duration.as_secs_f64())
}

/// Formats a duration in milliseconds.
pub fn fmt_millis(duration: std::time::Duration) -> String {
    format!("{:.1} ms", duration.as_secs_f64() * 1e3)
}

/// Prints a simple aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_seconds(Duration::from_millis(1500)), "1.500s");
        assert_eq!(fmt_millis(Duration::from_micros(2500)), "2.5 ms");
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "sample",
            &["Command", "Native", "Browsix"],
            &[vec!["sha1sum".into(), "0.002s".into(), "0.189s".into()]],
        );
    }
}

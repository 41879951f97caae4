//! Regenerates Table 1: the feature comparison of execution environments and
//! language runtimes, and verifies the BROWSIX row by exercising each feature.
//! Also reports what the verification run cost the kernel: system calls by
//! Figure 3 class and the submission batch-size histogram.

use browsix_bench::{environment_feature_table, features::verify_browsix_row_with_shard_stats, print_table};
use browsix_core::KernelStats;

fn main() {
    // The ABI generation manifest: the same counts browsix-abigen derives
    // from abi/syscalls.abi at build time, so the syscall surface's growth
    // is visible run over run.
    let m = browsix_core::abi::MANIFEST;
    println!(
        "ABI manifest (generated from abi/syscalls.abi): wire v{} · {} syscalls (max opcode {}) · {} result tags\n",
        m.wire_version, m.syscall_count, m.max_opcode, m.result_count
    );

    let rows: Vec<Vec<String>> = environment_feature_table().iter().map(|row| row.cells()).collect();
    print_table(
        "Table 1 — feature comparison",
        &[
            "Environment / runtime",
            "Filesystem",
            "Socket clients",
            "Socket servers",
            "Processes",
            "Pipes",
            "Signals",
        ],
        &rows,
    );
    let (verified, stats, per_shard) = verify_browsix_row_with_shard_stats();
    println!(
        "\nVerified against running code (a Browsix process exercised each feature): {}",
        verified.join(", ")
    );

    let class_rows: Vec<Vec<String>> = stats
        .syscalls_by_class
        .iter()
        .map(|(class, count)| vec![class.clone(), count.to_string()])
        .collect();
    print_table(
        "Verification run — system calls by class",
        &["Class", "Calls"],
        &class_rows,
    );

    let histogram_rows: Vec<Vec<String>> = stats
        .batch_size_histogram
        .iter()
        .map(|(size, count)| vec![size.to_string(), count.to_string()])
        .collect();
    print_table(
        "Verification run — submission batch sizes",
        &["Entries/batch", "Batches"],
        &histogram_rows,
    );
    println!(
        "mean {:.2} entries/batch, max {} (ring entries travel in no batch)",
        stats.mean_batch_size(),
        stats.max_batch_size()
    );

    // Every scalar counter, one table per group, fleet-wide: each is the
    // merge of the per-shard snapshots.
    let counters: Vec<_> = stats.counters().collect();
    for group in counters.chunk_by(|a, b| a.0 == b.0) {
        let rows: Vec<Vec<String>> = group
            .iter()
            .map(|(_, name, value)| vec![(*name).to_owned(), value.to_string()])
            .collect();
        print_table(
            &format!("Verification run — {}", group[0].0),
            &["Counter", "Value"],
            &rows,
        );
    }

    // How the run's cross-shard traffic spread over the kernel's loops.  With
    // BROWSIX_SHARDS unset the run uses one shard and every counter is zero.
    let sharding = |s: &KernelStats| s.counters().filter(|(group, ..)| *group == "sharding");
    let mut headers = vec!["Shard"];
    headers.extend(sharding(&stats).map(|(_, name, _)| name));
    let shard_rows: Vec<Vec<String>> = per_shard
        .iter()
        .enumerate()
        .map(|(shard, s)| {
            std::iter::once(shard.to_string())
                .chain(sharding(s).map(|(.., value)| value.to_string()))
                .collect()
        })
        .collect();
    print_table(
        &format!("Verification run — sharding, per shard (shards: {})", per_shard.len()),
        &headers,
        &shard_rows,
    );
}

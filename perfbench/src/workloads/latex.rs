//! `latex_build`: delete `main.pdf`, click "Build PDF" — alternating between
//! a `LatexMode::Sync` environment (make spawns over rings) and a
//! `LatexMode::Async` one (make forks, COW), both booted delay-free.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::{LatexEditor, LatexEnvironment, LatexMode};
use browsix_core::KernelStats;
use browsix_fs::FileSystem;

use super::{Phase, Workload};
use crate::trace::Tracer;

/// The synthetic toolchain pads every PDF to exactly this size.
const PDF_LEN: usize = 64 << 10;

pub struct LatexWorkload {
    /// `[sync, async]`; op `i` builds in `editors[i % 2]`.
    editors: [LatexEditor; 2],
    next_index: u64,
}

impl LatexWorkload {
    pub fn setup() -> LatexWorkload {
        // `boot_for_tests` is the delay-free boot: compute scale 0, instant
        // network, platform `.without_delays()`.  Its shard count comes from
        // the environment, which `main` has cleared, so it is one.
        LatexWorkload {
            editors: [LatexMode::Sync, LatexMode::Async]
                .map(|mode| LatexEditor::new(LatexEnvironment::boot_for_tests(mode))),
            next_index: 0,
        }
    }

    /// Span name of a build in `editors[which]`.
    pub fn span_name(which: usize) -> &'static str {
        ["apps.latex.build_pdf.sync", "apps.latex.build_pdf.async"][which]
    }
}

impl Workload for LatexWorkload {
    fn run(&mut self, duration: Duration, tracer: &Arc<Tracer>) -> Phase {
        let mut phase = Phase::default();
        while phase.busy_s < duration.as_secs_f64() {
            let index = self.next_index;
            self.next_index += 1;
            let which = (index % 2) as usize;
            let editor = &self.editors[which];
            tracer.span("bench.op", 0, index, |op| {
                let environment = editor.environment();
                let pdf_path = format!("{}/main.pdf", environment.project_dir);
                let _ = environment.kernel.fs().unlink(&pdf_path);
                let start = Instant::now();
                let outcome = tracer.span(LatexWorkload::span_name(which), op, index, |_| editor.build_pdf());
                let took = start.elapsed().as_secs_f64();
                phase.ops += 1;
                phase.busy_s += took;
                phase.lat_us.push(took * 1e6);
                let pdf_ok = outcome
                    .pdf
                    .as_ref()
                    .is_some_and(|pdf| pdf.len() == PDF_LEN && pdf.starts_with(b"%PDF-1.5\n"));
                if outcome.success && pdf_ok && outcome.stdout.contains("Citations resolved: true") {
                    phase.bytes += PDF_LEN as u64;
                } else {
                    phase.failed += 1;
                    eprintln!("perfbench: latex build {index} failed: {}", outcome.stderr);
                }
            });
        }
        phase
    }

    fn stats(&self) -> KernelStats {
        let mut total = self.editors[0].environment().kernel.stats();
        // `merge` sums the file-system counters too, which is right here:
        // the two environments share no mount.
        total.merge(&self.editors[1].environment().kernel.stats());
        total
    }

    fn finish(self: Box<Self>) -> bool {
        // Dropping an environment drops its kernel, which shuts it down.
        true
    }
}

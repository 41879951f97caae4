//! `httpd_mix`: the bundled poll-driven `httpd` under two closed-loop host
//! clients on `Kernel::http_request`; 73 % tiny, 25 % 32 KiB, 2 % 1 MiB.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_core::{Errno, Kernel, KernelStats};
use browsix_fs::FileSystem;
use browsix_http::{HttpRequest, HttpResponse, Method};
use browsix_runtime::{ExecutionProfile, NodeLauncher, SyscallConvention};

use super::{standard_kernel, Phase, Workload};
use crate::rng::{checksum, Rng};
use crate::trace::Tracer;

const PORT: u16 = 8000;
/// Closed-loop clients: one per CPU of the box this was sized on.
const CLIENTS: u64 = 2;
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One servable file and what a correct response to it carries.
struct Document {
    path: &'static str,
    len: usize,
    checksum: u64,
}

pub struct HttpdWorkload {
    kernel: Kernel,
    documents: [Document; 3],
    seed: u64,
    /// Phases run so far: each phase gives its clients fresh op streams.
    phases: u64,
}

impl HttpdWorkload {
    pub fn setup(seed: u64) -> HttpdWorkload {
        let mut inputs = Rng::new(seed, 0);
        let kernel = standard_kernel();
        kernel.registry().register(
            "/usr/bin/httpd",
            Arc::new(
                NodeLauncher::new("httpd", browsix_apps::httpd_program())
                    .with_profile(ExecutionProfile::instant(SyscallConvention::Async)),
            ),
        );
        let fs = kernel.fs();
        fs.mkdir("/srv").expect("mkdir /srv");
        let documents = [("/hello.txt", 19), ("/p32k.bin", 32 << 10), ("/p1m.bin", 1 << 20)].map(|(path, len)| {
            let body = inputs.bytes(len);
            fs.write_file(&format!("/srv{path}"), &body).expect("stage document");
            Document {
                path,
                len,
                checksum: checksum(&body),
            }
        });
        kernel
            .spawn(
                "/usr/bin/httpd",
                &["httpd", "--port", &PORT.to_string(), "--root", "/srv"],
                &[],
            )
            .expect("start httpd");
        assert!(
            kernel.wait_for_port(PORT, Duration::from_secs(10)),
            "httpd never listened"
        );
        HttpdWorkload {
            kernel,
            documents,
            seed,
            phases: 0,
        }
    }

    /// GETs document `class` (0 tiny, 1 32 KiB, 2 1 MiB).
    pub fn get(&self, class: usize) -> Result<HttpResponse, Errno> {
        let request = HttpRequest::new(Method::Get, self.documents[class].path);
        self.kernel.http_request(PORT, request, OP_TIMEOUT)
    }

    /// Whether `response` is what the generator staged for `class`.
    pub fn verify(&self, class: usize, response: &Result<HttpResponse, Errno>) -> bool {
        let document = &self.documents[class];
        response
            .as_ref()
            .is_ok_and(|r| r.status == 200 && r.body.len() == document.len && checksum(&r.body) == document.checksum)
    }

    /// One client's closed loop; returns its share of the phase.
    fn client(&self, stream: u64, duration: Duration, tracer: &Tracer) -> Phase {
        let mut rng = Rng::new(self.seed, 1 + stream);
        let mut phase = Phase::default();
        let begin = Instant::now();
        while begin.elapsed() < duration {
            let index = (stream << 32) | phase.ops;
            let class = match rng.below(100) {
                0..=72 => 0,
                73..=97 => 1,
                _ => 2,
            };
            tracer.span("bench.op", 0, index, |op| {
                let start = Instant::now();
                let response = tracer.span("core.hostapi.http_request", op, index, |_| self.get(class));
                phase.lat_us.push(start.elapsed().as_secs_f64() * 1e6);
                phase.ops += 1;
                if self.verify(class, &response) {
                    phase.bytes += self.documents[class].len as u64;
                } else {
                    phase.failed += 1;
                    let seen = response.map(|r| (r.status, r.body.len()));
                    eprintln!("perfbench: GET {} failed: {seen:?}", self.documents[class].path);
                }
            });
        }
        phase
    }
}

impl Workload for HttpdWorkload {
    fn run(&mut self, duration: Duration, tracer: &Arc<Tracer>) -> Phase {
        let first_stream = self.phases * CLIENTS;
        self.phases += 1;
        let this = &*self;
        let begin = Instant::now();
        let shares: Vec<Phase> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || this.client(first_stream + c, duration, tracer)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("http client does not panic"))
                .collect()
        });
        let mut phase = Phase {
            // Clients overlap, so the rate's denominator is wall time.
            busy_s: begin.elapsed().as_secs_f64(),
            ..Phase::default()
        };
        for share in shares {
            phase.ops += share.ops;
            phase.failed += share.failed;
            phase.bytes += share.bytes;
            phase.lat_us.extend(share.lat_us);
        }
        phase
    }

    fn stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    fn finish(self: Box<Self>) -> bool {
        let listening = self.kernel.listening_ports().contains(&PORT);
        self.kernel.shutdown();
        listening
    }
}

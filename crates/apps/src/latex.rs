//! The LaTeX editor case study (paper §2 and §5.2, experiment E6).
//!
//! The editor's "Build PDF" button runs GNU Make inside Browsix; Make runs
//! `pdflatex` (twice, when references change) and `bibtex`; the TeX tools read
//! class files, packages and fonts from a TeX Live distribution mounted over
//! HTTP and fetched lazily on first access; and the resulting PDF is read back
//! by the web application.  A native build of the same single-page document
//! takes ~0.1 s; under Browsix it takes ~3 s with synchronous system calls and
//! ~12 s with asynchronous calls and the Emterpreter.
//!
//! The TeX toolchain here is a synthetic equivalent (see DESIGN.md): the
//! guest programs issue the same classes of system calls — reading sources,
//! lazily faulting in packages over the HTTP mount, writing `.aux`/`.bbl`/
//! `.log`/`.pdf` outputs, spawning subprocesses (with `fork` in Emterpreter
//! mode) — and charge calibrated compute so the end-to-end times reproduce the
//! paper's shape.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_browser::{NetworkProfile, RemoteEndpoint, StaticFiles};
use browsix_core::{BootConfig, Kernel};
use browsix_fs::{FileSystem, HttpFs, MemFs, MountedFs};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, NativeWorld, RuntimeEnv, SpawnStdio,
};

/// Compute units charged by one `pdflatex` pass over the sample document
/// (calibrated so the native build lands near 0.1 s and the Browsix builds
/// near 3 s / 12 s, the paper's own LaTeX timings).
pub const PDFLATEX_COMPUTE_UNITS: u64 = 120_000;
/// Compute units charged by one `bibtex` run.
pub const BIBTEX_COMPUTE_UNITS: u64 = 15_000;
/// Compute units charged by `make` itself (dependency scanning).
pub const MAKE_COMPUTE_UNITS: u64 = 2_000;

/// How the TeX tools are "compiled": which Emscripten mode and therefore which
/// system-call convention they use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatexMode {
    /// asm.js + synchronous system calls (Chrome with shared memory).
    Sync,
    /// Emterpreter + asynchronous system calls (all browsers; required for
    /// `make`'s use of `fork`).
    Async,
}

/// Builds the synthetic TeX Live distribution served over (simulated) HTTP.
///
/// The distribution is deliberately much larger than any single document
/// needs — the whole point of the lazy HTTP-backed mount is that only the
/// files a build touches are transferred.
pub fn texlive_distribution(package_count: usize) -> (StaticFiles, Vec<(String, u64)>) {
    let files = StaticFiles::new();
    let mut manifest = Vec::new();
    let mut add = |path: String, data: Vec<u8>| {
        manifest.push((path.clone(), data.len() as u64));
        files.insert(&path, data);
    };
    add("/article.cls".to_owned(), vec![b'%'; 48 * 1024]);
    add("/size10.clo".to_owned(), vec![b'%'; 8 * 1024]);
    add("/fonts/cmr10.tfm".to_owned(), vec![0u8; 12 * 1024]);
    add("/fonts/cmbx12.tfm".to_owned(), vec![0u8; 12 * 1024]);
    add("/fonts/cmtt10.tfm".to_owned(), vec![0u8; 12 * 1024]);
    add("/bst/plain.bst".to_owned(), vec![b'%'; 20 * 1024]);
    for i in 0..package_count {
        add(format!("/packages/pkg{i:03}.sty"), vec![b'%'; 16 * 1024]);
    }
    (files, manifest)
}

/// The standard sample project: a single-page paper with a bibliography, the
/// workload of the paper's LaTeX measurement.
pub fn sample_project(fs: &dyn FileSystem, dir: &str) {
    let _ = browsix_fs::backend::make_parent_dirs(fs, &format!("{dir}/main.tex"));
    let _ = fs.mkdir(dir);
    let tex = br#"\documentclass{article}
\usepackage{pkg001}
\usepackage{pkg004}
\usepackage{pkg010}
\usepackage{pkg017}
\begin{document}
\title{BROWSIX: Bridging the Gap Between Unix and the Browser}
\maketitle
A single page document with a bibliography~\cite{browsix}.
\bibliographystyle{plain}
\bibliography{main}
\end{document}
"#;
    let bib = br#"@inproceedings{browsix,
  title = {BROWSIX: Bridging the Gap Between Unix and the Browser},
  author = {Powers, Bobby and Vilk, John and Berger, Emery D.},
  booktitle = {ASPLOS},
  year = {2017},
}
"#;
    let makefile = br#"# Rebuild the paper: pdflatex, bibtex, then pdflatex again.
main.pdf: main.tex main.bib
	pdflatex main.tex
	bibtex main
	pdflatex main.tex
"#;
    fs.write_file(&format!("{dir}/main.tex"), tex).expect("stage main.tex");
    fs.write_file(&format!("{dir}/main.bib"), bib).expect("stage main.bib");
    fs.write_file(&format!("{dir}/Makefile"), makefile)
        .expect("stage Makefile");
}

// ---- the synthetic TeX toolchain ------------------------------------------------

fn scan_packages(tex: &str) -> Vec<String> {
    let mut packages = Vec::new();
    for line in tex.lines() {
        if let Some(rest) = line.trim().strip_prefix("\\usepackage{") {
            if let Some(name) = rest.strip_suffix('}') {
                packages.push(name.to_owned());
            }
        }
    }
    packages
}

/// The `pdflatex` guest program.
pub fn pdflatex_program() -> GuestFactory {
    guest("pdflatex", |env: &mut dyn RuntimeEnv| {
        let args = env.args();
        let Some(source) = args.iter().skip(1).find(|a| a.ends_with(".tex")) else {
            env.eprint("pdflatex: no input file\n");
            return 1;
        };
        let job = source.trim_end_matches(".tex").to_owned();
        let tex = match env.read_file(source) {
            Ok(data) => String::from_utf8_lossy(&data).into_owned(),
            Err(e) => {
                env.eprint(&format!("pdflatex: {source}: {e}\n"));
                return 1;
            }
        };
        env.print(&format!("This is pdfTeX (Browsix) processing {source}\n"));
        let mut log = String::from("pdflatex log\n");

        // The document class, font metrics and every referenced package are
        // read from the TeX Live mount; first access faults them in over HTTP.
        let mut inputs: Vec<String> = vec![
            "/usr/texlive/article.cls".to_owned(),
            "/usr/texlive/size10.clo".to_owned(),
            "/usr/texlive/fonts/cmr10.tfm".to_owned(),
            "/usr/texlive/fonts/cmbx12.tfm".to_owned(),
        ];
        for package in scan_packages(&tex) {
            inputs.push(format!("/usr/texlive/packages/{package}.sty"));
        }
        let mut missing = false;
        for path in &inputs {
            match env.read_file(path) {
                Ok(data) => {
                    env.charge_compute((data.len() as u64) / 2048 + 1);
                    log.push_str(&format!("({path})\n"));
                }
                Err(e) => {
                    env.eprint(&format!("! LaTeX Error: File `{path}' not found: {e}.\n"));
                    missing = true;
                }
            }
        }

        // Typesetting itself: the dominant compute cost.
        env.charge_compute(PDFLATEX_COMPUTE_UNITS);

        // Include the bibliography if bibtex has produced it.
        let bbl = env.read_file(&format!("{job}.bbl")).ok();
        let citations_resolved = bbl.is_some();

        // Outputs: .aux (citations for bibtex), .log, .pdf.
        let aux = format!("\\citation{{browsix}}\n\\bibdata{{{job}}}\n\\bibstyle{{plain}}\n");
        let _ = env.write_file(&format!("{job}.aux"), aux.as_bytes());
        let _ = env.write_file(&format!("{job}.log"), log.as_bytes());
        if missing {
            return 1;
        }
        let mut pdf = Vec::with_capacity(64 * 1024);
        pdf.extend_from_slice(b"%PDF-1.5\n%browsix synthetic build\n");
        pdf.extend_from_slice(tex.as_bytes());
        if let Some(bbl) = &bbl {
            pdf.extend_from_slice(bbl);
        }
        pdf.resize(64 * 1024, b' ');
        let _ = env.write_file(&format!("{job}.pdf"), &pdf);
        env.print(&format!(
            "Output written on {job}.pdf ({} page, {} bytes). Citations resolved: {}\n",
            1,
            pdf.len(),
            citations_resolved
        ));
        0
    })
}

/// The `bibtex` guest program.
pub fn bibtex_program() -> GuestFactory {
    guest("bibtex", |env: &mut dyn RuntimeEnv| {
        let args = env.args();
        let Some(job) = args.get(1).cloned() else {
            env.eprint("bibtex: missing aux file\n");
            return 1;
        };
        let aux = match env.read_file(&format!("{job}.aux")) {
            Ok(data) => data,
            Err(e) => {
                env.eprint(&format!("bibtex: {job}.aux: {e}\n"));
                return 1;
            }
        };
        let bib = match env.read_file(&format!("{job}.bib")) {
            Ok(data) => data,
            Err(e) => {
                env.eprint(&format!("bibtex: {job}.bib: {e}\n"));
                return 1;
            }
        };
        // The style file also comes from the lazily-loaded distribution.
        let _ = env.read_file("/usr/texlive/bst/plain.bst");
        env.charge_compute(BIBTEX_COMPUTE_UNITS + (aux.len() + bib.len()) as u64 / 1024);
        let bbl = format!(
            "\\begin{{thebibliography}}{{1}}\n\\bibitem{{browsix}} Powers et al. ASPLOS 2017.\n\\end{{thebibliography}}\n% from {} bytes of .bib\n",
            bib.len()
        );
        let _ = env.write_file(&format!("{job}.bbl"), bbl.as_bytes());
        env.print(&format!("This is BibTeX (Browsix): wrote {job}.bbl\n"));
        0
    })
}

/// The GNU Make guest program.
///
/// Parses the project Makefile and runs each recipe line.  As in the paper,
/// Make is the one tool that uses `fork`: when the runtime supports it
/// (Emterpreter mode), every recipe is executed by forking and having the
/// child spawn the command; under the synchronous convention it falls back to
/// a direct `spawn`, which is why the paper compiles Make with the
/// Emterpreter.
pub fn make_program() -> GuestFactory {
    guest("make", |env: &mut dyn RuntimeEnv| {
        let args = env.args();
        // `-C dir` switches directory first, as GNU make does.
        if let Some(pos) = args.iter().position(|a| a == "-C") {
            if let Some(dir) = args.get(pos + 1) {
                if let Err(e) = env.chdir(dir) {
                    env.eprint(&format!("make: chdir {dir}: {e}\n"));
                    return 2;
                }
            }
        }
        let makefile = match env.read_file("Makefile") {
            Ok(data) => String::from_utf8_lossy(&data).into_owned(),
            Err(e) => {
                env.eprint(&format!("make: Makefile: {e}\n"));
                return 2;
            }
        };
        env.charge_compute(MAKE_COMPUTE_UNITS);

        // Parse the first rule: "target: deps" followed by tab-indented recipe lines.
        let mut recipe = Vec::new();
        let mut deps: Vec<String> = Vec::new();
        let mut target = String::new();
        let mut in_rule = false;
        for line in makefile.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if !line.starts_with('\t') {
                if in_rule {
                    break;
                }
                if let Some((t, d)) = line.split_once(':') {
                    target = t.trim().to_owned();
                    deps = d.split_whitespace().map(|s| s.to_owned()).collect();
                    in_rule = true;
                }
            } else if in_rule {
                recipe.push(line.trim().to_owned());
            }
        }
        if recipe.is_empty() {
            env.eprint("make: nothing to be done\n");
            return 0;
        }

        // Rebuild when the target is missing or older than any dependency.
        let target_mtime = env.stat(&target).map(|m| m.mtime_ms).ok();
        let out_of_date = match target_mtime {
            None => true,
            Some(target_mtime) => deps
                .iter()
                .any(|dep| env.stat(dep).map(|m| m.mtime_ms > target_mtime).unwrap_or(true)),
        };
        if !out_of_date {
            env.print(&format!("make: '{target}' is up to date.\n"));
            return 0;
        }

        for command in recipe {
            env.print(&format!("{command}\n"));
            let words: Vec<String> = command.split_whitespace().map(|s| s.to_owned()).collect();
            if words.is_empty() {
                continue;
            }
            let program = if words[0].contains('/') {
                words[0].clone()
            } else {
                format!("/usr/bin/{}", words[0])
            };
            // fork + exec, the paper's reason Make needs the Emterpreter.
            let status = match env.fork(command.as_bytes().to_vec()) {
                Ok(child) => env.wait(child as i32).map(|w| w.exit_code.unwrap_or(2)).unwrap_or(2),
                Err(_) => {
                    // Synchronous convention: no fork; spawn directly.
                    match env.spawn(&program, &words, SpawnStdio::inherit()) {
                        Ok(pid) => env.wait(pid as i32).map(|w| w.exit_code.unwrap_or(2)).unwrap_or(2),
                        Err(e) => {
                            env.eprint(&format!("make: {}: {e}\n", words[0]));
                            2
                        }
                    }
                }
            };
            if status != 0 {
                env.eprint(&format!("make: *** [{target}] Error {status}\n"));
                return status;
            }
        }
        0
    })
}

/// The forked-child half of [`make_program`]: when a Make process is started
/// from a fork image, the image holds the recipe command the child must run.
fn run_fork_child(env: &mut dyn RuntimeEnv, image: Vec<u8>) -> i32 {
    let command = String::from_utf8_lossy(&image).into_owned();
    let words: Vec<String> = command.split_whitespace().map(|s| s.to_owned()).collect();
    if words.is_empty() {
        return 0;
    }
    let program = if words[0].contains('/') {
        words[0].clone()
    } else {
        format!("/usr/bin/{}", words[0])
    };
    match env.spawn(&program, &words, SpawnStdio::inherit()) {
        Ok(pid) => env.wait(pid as i32).map(|w| w.exit_code.unwrap_or(2)).unwrap_or(2),
        Err(e) => {
            env.eprint(&format!("make (forked child): {}: {e}\n", words[0]));
            127
        }
    }
}

/// Wraps [`make_program`] so that fork children execute their recipe command,
/// mirroring the fork/exec pattern of the real Make.
pub fn make_with_fork_support() -> GuestFactory {
    let inner = make_program();
    std::sync::Arc::new(move || {
        let factory = std::sync::Arc::clone(&inner);
        Box::new(browsix_runtime::FnProgram::new(
            "make",
            move |env: &mut dyn RuntimeEnv| {
                if let Some(image) = env.fork_image() {
                    return run_fork_child(env, image);
                }
                factory().run(env)
            },
        ))
    })
}

// ---- host-side wiring -------------------------------------------------------------

/// Everything needed to run LaTeX builds in one configuration.
pub struct LatexEnvironment {
    /// The booted kernel.
    pub kernel: Kernel,
    /// The HTTP-backed TeX Live mount (for fetch statistics).
    pub texlive: Arc<HttpFs>,
    /// The remote endpoint serving the distribution.
    pub endpoint: RemoteEndpoint,
    /// The directory holding the sample project.
    pub project_dir: String,
}

impl LatexEnvironment {
    /// Boots a Browsix kernel with the TeX toolchain registered in `mode`,
    /// the TeX Live distribution mounted at `/usr/texlive`, and the sample
    /// project staged in `/home/paper`.
    ///
    /// `compute_scale` scales all calibrated compute costs (1.0 reproduces the
    /// paper's absolute numbers; benchmarks use a smaller value to keep wall
    /// time manageable while preserving ratios).  `network` selects the link
    /// model for the TeX Live mirror.
    pub fn boot(mode: LatexMode, compute_scale: f64, network: NetworkProfile) -> LatexEnvironment {
        let root = Arc::new(MountedFs::new(Arc::new(MemFs::new())));
        let (files, manifest) = texlive_distribution(60);
        let endpoint = RemoteEndpoint::with_static_files(files, network);
        let texlive = Arc::new(HttpFs::new(endpoint.clone(), manifest));
        root.mkdir("/usr").expect("mkdir /usr");
        root.mount("/usr/texlive", Arc::clone(&texlive) as Arc<dyn FileSystem>)
            .expect("mount texlive");

        let platform = match mode {
            LatexMode::Sync => browsix_browser::PlatformConfig::chrome(),
            LatexMode::Async => browsix_browser::PlatformConfig::firefox(),
        };
        let config = BootConfig::in_memory()
            .with_fs(Arc::clone(&root))
            .with_platform(platform);

        // Register the TeX toolchain under the Emscripten runtime in the
        // requested mode, with scaled profiles.
        let (emode, profile) = match mode {
            LatexMode::Sync => (EmscriptenMode::AsmJs, ExecutionProfile::browsix_sync_asmjs()),
            LatexMode::Async => (EmscriptenMode::Emterpreter, ExecutionProfile::browsix_emterpreter()),
        };
        let profile = profile.scaled(compute_scale);
        let registry = &config.registry;
        registry.register(
            "/usr/bin/pdflatex",
            Arc::new(EmscriptenLauncher::new("pdflatex", pdflatex_program(), emode).with_profile(profile.clone())),
        );
        registry.register(
            "/usr/bin/bibtex",
            Arc::new(EmscriptenLauncher::new("bibtex", bibtex_program(), emode).with_profile(profile.clone())),
        );
        // Make always uses the Emterpreter when it needs fork; in sync mode it
        // runs sync and falls back to spawn, as documented above.
        registry.register(
            "/usr/bin/make",
            Arc::new(EmscriptenLauncher::new("make", make_with_fork_support(), emode).with_profile(profile.clone())),
        );
        browsix_utils::register_browsix(registry, ExecutionProfile::browsix_async().scaled(compute_scale));
        browsix_shell::register_browsix(registry, profile);

        let kernel = Kernel::boot(config);
        let _ = kernel.fs().mkdir("/home");
        sample_project(kernel.fs().as_ref(), "/home/paper");
        LatexEnvironment {
            kernel,
            texlive,
            endpoint,
            project_dir: "/home/paper".to_owned(),
        }
    }

    /// A delay-free environment for functional tests.
    pub fn boot_for_tests(mode: LatexMode) -> LatexEnvironment {
        LatexEnvironment::boot_with_platform_overrides(mode)
    }

    fn boot_with_platform_overrides(mode: LatexMode) -> LatexEnvironment {
        let mut env = LatexEnvironment::boot(mode, 0.0, NetworkProfile::instant());
        // Replace the kernel with one whose platform injects no delays, while
        // keeping the same file system and registry.
        let platform = match mode {
            LatexMode::Sync => browsix_browser::PlatformConfig::chrome().without_delays(),
            LatexMode::Async => browsix_browser::PlatformConfig::firefox().without_delays(),
        };
        let fs = env.kernel.fs();
        let registry = env.kernel.registry().clone();
        let config = BootConfig::in_memory()
            .with_fs(fs)
            .with_platform(platform)
            .with_registry(registry);
        env.kernel.shutdown();
        env.kernel = Kernel::boot(config);
        env
    }
}

/// The result of one "Build PDF" click.
#[derive(Debug)]
pub struct BuildOutcome {
    /// Whether Make exited successfully.
    pub success: bool,
    /// Wall-clock build time.
    pub elapsed: Duration,
    /// Captured standard output of the build.
    pub stdout: String,
    /// Captured standard error of the build.
    pub stderr: String,
    /// The generated PDF, when the build succeeded.
    pub pdf: Option<Vec<u8>>,
}

/// The in-browser LaTeX editor: the web-application side of the case study.
pub struct LatexEditor {
    environment: LatexEnvironment,
}

impl LatexEditor {
    /// Wraps a booted environment.
    pub fn new(environment: LatexEnvironment) -> LatexEditor {
        LatexEditor { environment }
    }

    /// The underlying environment (kernel, mounts, statistics).
    pub fn environment(&self) -> &LatexEnvironment {
        &self.environment
    }

    /// The editor's current document source (what the text pane shows).
    pub fn document(&self) -> String {
        let path = format!("{}/main.tex", self.environment.project_dir);
        String::from_utf8_lossy(&self.environment.kernel.fs().read_file(&path).unwrap_or_default()).into_owned()
    }

    /// Replaces the document source (the user typed in the editor).
    pub fn set_document(&self, tex: &str) {
        let path = format!("{}/main.tex", self.environment.project_dir);
        let _ = self.environment.kernel.fs().write_file(&path, tex.as_bytes());
    }

    /// The user clicked "Build PDF": run `make` and collect the outcome.
    pub fn build_pdf(&self) -> BuildOutcome {
        let kernel = &self.environment.kernel;
        let start = Instant::now();
        let handle = match kernel.system(&format!("make -C {}", self.environment.project_dir)) {
            Ok(handle) => handle,
            Err(e) => {
                return BuildOutcome {
                    success: false,
                    elapsed: start.elapsed(),
                    stdout: String::new(),
                    stderr: format!("failed to start make: {e}"),
                    pdf: None,
                }
            }
        };
        let status = handle.wait();
        let elapsed = start.elapsed();
        let pdf_path = format!("{}/main.pdf", self.environment.project_dir);
        let pdf = if status.success() {
            kernel.fs().read_file(&pdf_path).ok()
        } else {
            None
        };
        BuildOutcome {
            success: status.success(),
            elapsed,
            stdout: handle.stdout_string(),
            stderr: handle.stderr_string(),
            pdf,
        }
    }

    /// Cancels a running build by delivering SIGKILL, as the editor does when
    /// the user gives up on a slow build.
    pub fn cancel(&self, pid: browsix_core::Pid) {
        let _ = self.environment.kernel.kill(pid, browsix_core::Signal::SIGKILL);
    }
}

/// Runs the same document build natively (no kernel, no workers): the paper's
/// native-Linux pdflatex baseline.  Returns the wall-clock time.
pub fn native_build(compute_scale: f64) -> Duration {
    let root = Arc::new(MountedFs::new(Arc::new(MemFs::new())));
    let (files, manifest) = texlive_distribution(60);
    // Natively the distribution is just on disk: serve it with no link cost.
    let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
    let texlive = Arc::new(HttpFs::new(endpoint, manifest));
    root.mkdir("/usr").unwrap();
    root.mount("/usr/texlive", texlive as Arc<dyn FileSystem>).unwrap();
    sample_project(root.as_ref(), "/home/paper");

    let world = NativeWorld::new(root, ExecutionProfile::native().scaled(compute_scale));
    world.table().register("/usr/bin/pdflatex", pdflatex_program());
    world.table().register("/usr/bin/bibtex", bibtex_program());
    world.table().register("/usr/bin/make", make_program());

    let start = Instant::now();
    let result = world.run("make", &["make", "-C", "/home/paper"]);
    assert_eq!(result.exit_code, 0, "native build failed: {}", result.stdout_string());
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_scanning_finds_usepackage_lines() {
        let packages = scan_packages("\\documentclass{article}\n\\usepackage{pkg001}\n\\usepackage{pkg004}\n");
        assert_eq!(packages, vec!["pkg001", "pkg004"]);
        assert!(scan_packages("no packages here").is_empty());
    }

    #[test]
    fn distribution_has_classes_fonts_and_packages() {
        let (files, manifest) = texlive_distribution(10);
        assert_eq!(files.len(), manifest.len());
        assert!(manifest.iter().any(|(p, _)| p == "/article.cls"));
        assert!(manifest.iter().any(|(p, _)| p.starts_with("/packages/")));
        assert!(manifest.iter().any(|(p, _)| p.starts_with("/fonts/")));
        // Total size far exceeds what one document needs.
        let total: u64 = manifest.iter().map(|(_, s)| s).sum();
        assert!(total > 200 * 1024);
    }

    #[test]
    fn native_build_produces_a_pdf_quickly() {
        let elapsed = native_build(0.0);
        assert!(elapsed < Duration::from_secs(5));
    }

    #[test]
    fn browsix_build_generates_pdf_and_lazily_fetches_packages() {
        let editor = LatexEditor::new(LatexEnvironment::boot_for_tests(LatexMode::Sync));
        assert!(editor.document().contains("documentclass"));
        let outcome = editor.build_pdf();
        assert!(
            outcome.success,
            "stdout: {}\nstderr: {}",
            outcome.stdout, outcome.stderr
        );
        let pdf = outcome.pdf.expect("pdf produced");
        assert!(pdf.starts_with(b"%PDF"));
        assert!(outcome.stdout.contains("pdflatex"));
        // Only the files the document touches were fetched from the mirror.
        let stats = editor.environment().texlive.stats();
        assert!(stats.fetches > 0);
        assert!((stats.fetches as usize) < editor.environment().texlive.manifest_len());
        // A second build is incremental: make sees the PDF is up to date.
        let second = editor.build_pdf();
        assert!(second.success);
        assert!(second.stdout.contains("up to date"), "stdout: {}", second.stdout);
    }

    #[test]
    fn async_mode_build_also_succeeds_via_fork() {
        let editor = LatexEditor::new(LatexEnvironment::boot_for_tests(LatexMode::Async));
        let outcome = editor.build_pdf();
        assert!(
            outcome.success,
            "stdout: {}\nstderr: {}",
            outcome.stdout, outcome.stderr
        );
        assert!(outcome.pdf.is_some());
        // The bibliography pass ran.
        assert!(outcome.stdout.contains("BibTeX"));
    }

    #[test]
    fn editing_the_document_changes_what_gets_built() {
        let editor = LatexEditor::new(LatexEnvironment::boot_for_tests(LatexMode::Sync));
        editor.set_document(
            "\\documentclass{article}\n\\usepackage{missing-package}\n\\begin{document}x\\end{document}\n",
        );
        let outcome = editor.build_pdf();
        assert!(!outcome.success);
        assert!(outcome.stderr.contains("Error") || outcome.stdout.contains("Error"));
    }
}

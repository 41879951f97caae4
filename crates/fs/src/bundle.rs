//! Test fixture: a bundle of static files served read-only.
//!
//! An application ships its read-only files (a TeX Live tree, `/etc`) as a
//! bundle on a web server; Browsix mounts it through [`HttpFs`].  Tests that
//! need such a lower layer build one here, with no modeled network cost.

use browsix_browser::{NetworkProfile, RemoteEndpoint, StaticFiles};

use crate::httpfs::HttpFs;

/// A read-only file system serving `files` from an in-memory server with no
/// modeled network cost, each listed at its true size.
pub(crate) fn static_httpfs(files: &[(&str, &str)]) -> HttpFs {
    let server = StaticFiles::new();
    for (path, text) in files {
        server.insert(path, text.as_bytes().to_vec());
    }
    let endpoint = RemoteEndpoint::with_static_files(server, NetworkProfile::instant());
    HttpFs::new(
        endpoint,
        files.iter().map(|(path, text)| (path.to_string(), text.len() as u64)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FileSystem;
    use crate::errno::Errno;
    use crate::types::FileType;

    fn sample() -> HttpFs {
        static_httpfs(&[
            ("/texmf/article.cls", "\\ProvidesClass{article}"),
            ("/texmf/fonts/cmr10.tfm", "font data"),
            ("/Makefile", "all: main.pdf"),
        ])
    }

    #[test]
    fn stat_files_and_implied_directories() {
        let fs = sample();
        assert!(fs.stat("/texmf/article.cls").unwrap().is_file());
        assert!(fs.stat("/texmf").unwrap().is_dir());
        assert!(fs.stat("/texmf/fonts").unwrap().is_dir());
        assert!(fs.stat("/").unwrap().is_dir());
        assert_eq!(fs.stat("/missing"), Err(Errno::ENOENT));
    }

    #[test]
    fn read_dir_lists_files_and_subdirectories() {
        let fs = sample();
        let root: Vec<String> = fs.read_dir("/").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(root, vec!["Makefile", "texmf"]);
        let texmf = fs.read_dir("/texmf").unwrap();
        assert_eq!(texmf.len(), 2);
        assert!(texmf
            .iter()
            .any(|e| e.name == "fonts" && e.file_type == FileType::Directory));
        assert_eq!(fs.read_dir("/Makefile"), Err(Errno::ENOTDIR));
        assert_eq!(fs.read_dir("/nope"), Err(Errno::ENOENT));
    }

    #[test]
    fn reads_work_and_writes_are_rejected() {
        let fs = sample();
        assert_eq!(fs.read_file("/Makefile").unwrap(), b"all: main.pdf");
        assert_eq!(fs.read_at("/Makefile", 5, 4).unwrap(), b"main");
        assert!(fs.read_only());
        assert_eq!(fs.write_at("/Makefile", 0, b"x"), Err(Errno::EROFS));
        assert_eq!(fs.create("/new", 0o644), Err(Errno::EROFS));
        assert_eq!(fs.mkdir("/dir"), Err(Errno::EROFS));
        assert_eq!(fs.unlink("/Makefile"), Err(Errno::EROFS));
        assert_eq!(fs.rename("/Makefile", "/m"), Err(Errno::EROFS));
        assert_eq!(fs.truncate("/Makefile", 0), Err(Errno::EROFS));
        assert_eq!(fs.chmod("/Makefile", 0o600), Err(Errno::EROFS));
        assert_eq!(fs.set_times("/Makefile", 0, 0), Err(Errno::EROFS));
        assert_eq!(fs.rmdir("/texmf"), Err(Errno::EROFS));
    }

    #[test]
    fn read_of_directory_is_eisdir() {
        let fs = sample();
        assert_eq!(fs.read_at("/texmf", 0, 10), Err(Errno::EISDIR));
    }
}

//! End-to-end tests for the inode/handle-based VFS: descriptor I/O through
//! open-file handles, O_APPEND atomicity, EXDEV across mounts, fsync, and
//! the cache counters surfaced in the kernel statistics.

use std::sync::Arc;

use browsix_browser::{NetworkProfile, RemoteEndpoint, StaticFiles};
use browsix_core::{BootConfig, Kernel};
use browsix_fs::{Errno, FileSystem, HttpFs, MemFs, OpenFlags};
use browsix_runtime::{guest, ExecutionProfile, NodeLauncher, RuntimeEnv, SyscallConvention};

/// Boots a kernel with a single registered program and no injected delays.
fn boot_with(name: &'static str, body: fn(&mut dyn RuntimeEnv) -> i32) -> Kernel {
    let config = BootConfig::in_memory();
    config.registry.register(
        &format!("/usr/bin/{name}"),
        Arc::new(
            NodeLauncher::new(name, guest(name, body))
                .with_profile(ExecutionProfile::instant(SyscallConvention::Async)),
        ),
    );
    Kernel::boot(config)
}

fn run(kernel: &Kernel, name: &str) {
    let handle = kernel.spawn(&format!("/usr/bin/{name}"), &[name], &[]).unwrap();
    let status = handle.wait();
    assert!(status.success(), "guest failed: {status:?}\n{}", handle.stdout_string());
}

#[test]
fn o_append_interleaved_descriptors_never_clobber() {
    let kernel = boot_with("appender", |env| {
        // Two *independent* open-file descriptions plus a dup'd alias of the
        // first: three descriptors appending interleaved.  Every write must
        // land at the then-current end of file — the regression this guards
        // against is an O_APPEND write trusting a stale stored offset.
        let a = env.open("/log", OpenFlags::append_create()).unwrap();
        let b = env.open("/log", OpenFlags::append_create()).unwrap();
        env.dup2(a, 9).unwrap();
        env.write(a, b"a1 ").unwrap();
        env.write(b, b"b1 ").unwrap();
        env.write(9, b"d1 ").unwrap();
        env.write(b, b"b2 ").unwrap();
        env.write(a, b"a2 ").unwrap();
        env.close(a).unwrap();
        env.close(b).unwrap();
        env.close(9).unwrap();
        0
    });
    run(&kernel, "appender");
    assert_eq!(kernel.fs().read_file("/log").unwrap(), b"a1 b1 d1 b2 a2 ");
    kernel.shutdown();
}

#[test]
fn o_append_reads_start_at_zero_but_writes_go_to_the_end() {
    let kernel = boot_with("append-rw", |env| {
        env.write_file("/notes", b"head ").unwrap();
        let fd = env
            .open(
                "/notes",
                OpenFlags {
                    read: true,
                    write: true,
                    append: true,
                    ..OpenFlags::default()
                },
            )
            .unwrap();
        // POSIX: the offset starts at 0 for reading...
        assert_eq!(env.read(fd, 5).unwrap(), b"head ");
        // ...but every write seeks to the end first,
        env.write(fd, b"tail").unwrap();
        // and leaves the offset at the new end.
        assert_eq!(env.seek(fd, 0, 1).unwrap(), 9);
        env.close(fd).unwrap();
        0
    });
    run(&kernel, "append-rw");
    assert_eq!(kernel.fs().read_file("/notes").unwrap(), b"head tail");
    kernel.shutdown();
}

#[test]
fn seek_past_i64_max_is_eoverflow_and_keeps_the_offset() {
    let kernel = boot_with("far-seeker", |env| {
        env.write_file("/data", b"abc").unwrap();
        let fd = env.open("/data", OpenFlags::read_only()).unwrap();
        assert_eq!(env.read(fd, 1).unwrap(), b"a");
        // 1 + i64::MAX and 3 + i64::MAX do not fit the offset type.
        assert_eq!(env.seek(fd, i64::MAX, 1), Err(Errno::EOVERFLOW));
        assert_eq!(env.seek(fd, i64::MAX, 2), Err(Errno::EOVERFLOW));
        // The descriptor is untouched: still at 1, still readable.
        assert_eq!(env.seek(fd, 0, 1).unwrap(), 1);
        assert_eq!(env.read(fd, 2).unwrap(), b"bc");
        env.close(fd).unwrap();
        0
    });
    run(&kernel, "far-seeker");
    kernel.shutdown();
}

#[test]
fn rename_across_mounts_is_exdev() {
    let kernel = boot_with("mover", |env| {
        env.write_file("/file.txt", b"payload").unwrap();
        // /scratch is a different backend: rename must report EXDEV and
        // leave the source untouched.
        assert_eq!(env.rename("/file.txt", "/scratch/file.txt"), Err(Errno::EXDEV));
        assert_eq!(env.read_file("/file.txt").unwrap(), b"payload");
        // Same-backend rename still works.
        env.rename("/file.txt", "/renamed.txt").unwrap();
        0
    });
    kernel.fs().mount("/scratch", Arc::new(MemFs::new())).unwrap();
    run(&kernel, "mover");
    assert_eq!(kernel.fs().read_file("/renamed.txt").unwrap(), b"payload");
    kernel.shutdown();
}

#[test]
fn fsync_succeeds_on_files_and_fails_on_pipes() {
    let kernel = boot_with("syncer", |env| {
        let fd = env.open("/data", OpenFlags::write_create_truncate()).unwrap();
        env.write(fd, b"durable").unwrap();
        env.fsync(fd).unwrap();
        env.close(fd).unwrap();
        assert_eq!(env.fsync(fd), Err(Errno::EBADF));
        let (r, w) = env.pipe().unwrap();
        assert_eq!(env.fsync(w), Err(Errno::EINVAL));
        assert_eq!(env.fsync(r), Err(Errno::EINVAL));
        0
    });
    run(&kernel, "syncer");
    kernel.shutdown();
}

#[test]
fn open_descriptor_keeps_working_across_rename_and_unlink() {
    let kernel = boot_with("inode-user", |env| {
        env.write_file("/doc.txt", b"version-1").unwrap();
        let fd = env.open("/doc.txt", OpenFlags::read_write()).unwrap();
        // Rename the file out from under the descriptor: I/O keeps working
        // because the descriptor is bound to the inode, not the name.
        env.rename("/doc.txt", "/doc-final.txt").unwrap();
        env.pwrite(fd, b"VERSION-2", 0).unwrap();
        assert_eq!(env.pread(fd, 9, 0).unwrap(), b"VERSION-2");
        // Even after unlink the open descriptor stays usable.
        env.unlink("/doc-final.txt").unwrap();
        assert_eq!(env.stat("/doc-final.txt"), Err(Errno::ENOENT));
        assert_eq!(env.pread(fd, 9, 0).unwrap(), b"VERSION-2");
        env.close(fd).unwrap();
        0
    });
    run(&kernel, "inode-user");
    kernel.shutdown();
}

#[test]
fn kernel_stats_surface_vfs_cache_counters() {
    let kernel = boot_with("reader", |env| {
        // Descriptor reads of an httpfs-backed file in small chunks: the
        // page cache turns them into one ranged fetch plus cache hits.
        let fd = env.open("/remote/blob.bin", OpenFlags::read_only()).unwrap();
        let mut total = 0;
        loop {
            let chunk = env.read(fd, 512).unwrap();
            if chunk.is_empty() {
                break;
            }
            total += chunk.len();
        }
        assert_eq!(total, 8192);
        env.close(fd).unwrap();
        // Path-heavy loop to exercise the dentry cache.
        for _ in 0..10 {
            env.stat("/remote/blob.bin").unwrap();
        }
        0
    });
    let files = StaticFiles::new();
    files.insert("/blob.bin", vec![5u8; 8192]);
    let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
    let http = HttpFs::new(endpoint, vec![("/blob.bin".to_string(), 8192)]).with_page_size(1024);
    kernel.fs().mount("/remote", Arc::new(http)).unwrap();

    run(&kernel, "reader");
    let stats = kernel.stats();
    assert!(stats.page_cache_misses > 0, "pages must have been fetched");
    assert!(stats.page_cache_hits > 0, "chunked reads must hit the page cache");
    assert!(stats.dentry_cache_hits > 0, "repeated stats must hit the dentry cache");
    assert_eq!(stats.count("fsync"), 0);
    kernel.shutdown();
}

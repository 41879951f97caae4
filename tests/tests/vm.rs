//! End-to-end tests for the virtual-memory subsystem: `mmap` and friends
//! issued by real guest processes in workers, copy-on-write fork, POSIX
//! shared memory, and the zero-syscall shared-mapping data path.

use std::sync::Arc;

use browsix_core::{BootConfig, Errno, Kernel};
use browsix_fs::{FileSystem, OpenFlags};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, NodeLauncher, RuntimeEnv, SyscallConvention,
    MAP_ANONYMOUS, MAP_PRIVATE, MAP_SHARED, PAGE_SIZE, PROT_READ, PROT_WRITE,
};

fn instant_async() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// Boots a kernel and registers one Node-style guest at `/usr/bin/<name>`.
fn boot_node(name: &'static str, body: fn(&mut dyn RuntimeEnv) -> i32) -> Kernel {
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        &format!("/usr/bin/{name}"),
        Arc::new(NodeLauncher::new(name, guest(name, body)).with_profile(instant_async())),
    );
    kernel
}

#[test]
fn ftruncate_resizes_open_files_end_to_end() {
    let kernel = boot_node("truncator", |env: &mut dyn RuntimeEnv| {
        env.write_file("/data.bin", &[7u8; 1000]).unwrap();
        let fd = env.open("/data.bin", OpenFlags::read_write()).unwrap();
        // Shrink, then zero-extend; fstat observes each size.
        env.ftruncate(fd, 100).unwrap();
        assert_eq!(env.fstat(fd).unwrap().size, 100);
        env.ftruncate(fd, 300).unwrap();
        assert_eq!(env.fstat(fd).unwrap().size, 300);
        let tail = env.pread(fd, 300, 0).unwrap();
        assert_eq!(&tail[..100], &[7u8; 100][..]);
        assert_eq!(&tail[100..], &[0u8; 200][..]);
        env.close(fd).unwrap();
        // A read-only descriptor cannot truncate.
        let ro = env.open("/data.bin", OpenFlags::read_only()).unwrap();
        assert_eq!(env.ftruncate(ro, 0), Err(Errno::EINVAL));
        env.close(ro).unwrap();
        assert_eq!(env.ftruncate(99, 0), Err(Errno::EBADF));
        0
    });
    let handle = kernel.spawn("/usr/bin/truncator", &["truncator"], &[]).unwrap();
    let status = handle.wait();
    assert!(status.success(), "status: {status:?}");
    assert_eq!(kernel.fs().stat("/data.bin").unwrap().size, 300);
    assert!(kernel.stats().count("ftruncate") >= 3);
    kernel.shutdown();
}

#[test]
fn anonymous_mappings_store_and_load_through_vm_syscalls() {
    let kernel = boot_node("mapper", |env: &mut dyn RuntimeEnv| {
        let region = env
            .mmap(
                0,
                2 * PAGE_SIZE as u64,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
            .unwrap();
        assert!(!region.is_shared());
        // Fresh anonymous pages read as zeros.
        assert_eq!(env.vm_read(region.addr, 16).unwrap(), vec![0u8; 16]);
        // Stores land and cross page boundaries.
        env.vm_write(region.addr + PAGE_SIZE as u64 - 3, b"straddle").unwrap();
        assert_eq!(env.vm_read(region.addr + PAGE_SIZE as u64 - 3, 8).unwrap(), b"straddle");
        // Dropping write permission turns stores into EACCES; loads still work.
        env.mprotect(region.addr, region.len, PROT_READ).unwrap();
        assert_eq!(env.vm_write(region.addr, b"x"), Err(Errno::EACCES));
        assert!(env.vm_read(region.addr, 1).is_ok());
        // After munmap the range faults.
        env.munmap(region.addr, region.len).unwrap();
        assert_eq!(env.vm_read(region.addr, 1), Err(Errno::EFAULT));
        0
    });
    let handle = kernel.spawn("/usr/bin/mapper", &["mapper"], &[]).unwrap();
    assert!(handle.wait().success());
    kernel.shutdown();
}

#[test]
fn file_backed_mappings_read_through_the_page_cache() {
    let kernel = boot_node("filemap", |env: &mut dyn RuntimeEnv| {
        let mut image = vec![0u8; 2 * PAGE_SIZE];
        image[0..5].copy_from_slice(b"front");
        image[PAGE_SIZE..PAGE_SIZE + 4].copy_from_slice(b"back");
        env.write_file("/blob.bin", &image).unwrap();
        let fd = env.open("/blob.bin", OpenFlags::read_only()).unwrap();
        // Map the second page only (non-zero offset).
        let region = env
            .mmap(
                0,
                PAGE_SIZE as u64,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE,
                fd,
                PAGE_SIZE as u64,
            )
            .unwrap();
        assert_eq!(env.vm_read(region.addr, 4).unwrap(), b"back");
        // A private write is invisible to the file (copy-on-write from the
        // page cache).
        env.vm_write(region.addr, b"priv").unwrap();
        assert_eq!(env.vm_read(region.addr, 4).unwrap(), b"priv");
        let on_disk = env.read_file("/blob.bin").unwrap();
        assert_eq!(&on_disk[PAGE_SIZE..PAGE_SIZE + 4], b"back");
        env.close(fd).unwrap();
        0
    });
    let handle = kernel.spawn("/usr/bin/filemap", &["filemap"], &[]).unwrap();
    assert!(handle.wait().success());
    let stats = kernel.stats();
    assert!(
        stats.pages_shared >= 1,
        "file mapping should reference cache pages: {stats:?}"
    );
    kernel.shutdown();
}

#[test]
fn shared_file_mappings_write_back_on_msync() {
    let kernel = boot_node("msyncer", |env: &mut dyn RuntimeEnv| {
        env.write_file("/shared.bin", &vec![0u8; PAGE_SIZE]).unwrap();
        let fd = env.open("/shared.bin", OpenFlags::read_write()).unwrap();
        let region = env
            .mmap(0, PAGE_SIZE as u64, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0)
            .unwrap();
        assert!(region.is_shared());
        // Stores go straight to the shared buffer — no syscall — and msync
        // publishes them to the file.
        region.shared_write(128, b"durable").unwrap();
        env.msync(region.addr, 0).unwrap();
        let on_disk = env.read_file("/shared.bin").unwrap();
        assert_eq!(&on_disk[128..135], b"durable");
        env.munmap(region.addr, region.len).unwrap();
        env.close(fd).unwrap();
        0
    });
    let handle = kernel.spawn("/usr/bin/msyncer", &["msyncer"], &[]).unwrap();
    assert!(handle.wait().success());
    kernel.shutdown();
}

#[test]
fn cow_fork_isolates_parent_and_child_pages() {
    // Fork requires the async convention (Emterpreter-style launcher).
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/cowfork",
        Arc::new(
            EmscriptenLauncher::new(
                "cowfork",
                guest("cowfork", |env: &mut dyn RuntimeEnv| {
                    if env.fork_image().is_some() {
                        // Child: sees the parent's bytes, then rewrites them.
                        // The kernel gave us the parent's mappings by
                        // reference; this write is the COW fault.
                        let base = 0x1000_0000u64;
                        assert_eq!(env.vm_read(base, 6).unwrap(), b"parent");
                        env.vm_write(base, b"child!").unwrap();
                        assert_eq!(env.vm_read(base, 6).unwrap(), b"child!");
                        return 0;
                    }
                    let region = env
                        .mmap(
                            0,
                            16 * PAGE_SIZE as u64,
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS,
                            -1,
                            0,
                        )
                        .unwrap();
                    // The bump allocator places the first region at MAP_BASE,
                    // which the child relies on to find the mapping.
                    assert_eq!(region.addr, 0x1000_0000);
                    env.vm_write(region.addr, b"parent").unwrap();
                    let child = env.fork(b"tiny image".to_vec()).unwrap();
                    let waited = env.wait(child as i32).unwrap();
                    assert_eq!(waited.exit_code, Some(0));
                    // The child's write never reached our copy of the page.
                    assert_eq!(env.vm_read(region.addr, 6).unwrap(), b"parent");
                    7
                }),
                EmscriptenMode::Emterpreter,
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/cowfork", &["cowfork"], &[]).unwrap();
    let status = handle.wait();
    assert_eq!(status.code, Some(7), "status: {status:?}");
    let stats = kernel.stats();
    assert!(stats.cow_faults >= 1, "child write must COW-fault: {stats:?}");
    assert!(stats.pages_shared >= 1, "fork must share pages: {stats:?}");
    assert!(stats.pages_copied >= 1, "the fault must copy a page: {stats:?}");
    kernel.shutdown();
}

#[test]
fn fork_heavy_pipeline_shares_pages_instead_of_copying() {
    // A fork-heavy workload: each child inherits a 64-page mapping and
    // dirties exactly one page.  Sharing must dominate copying — the whole
    // point of COW fork being O(regions), not O(image bytes).
    let kernel = Kernel::boot(BootConfig::in_memory());
    kernel.registry().register(
        "/usr/bin/forkmany",
        Arc::new(
            EmscriptenLauncher::new(
                "forkmany",
                guest("forkmany", |env: &mut dyn RuntimeEnv| {
                    let base = 0x1000_0000u64;
                    if let Some(image) = env.fork_image() {
                        let index = image[0] as u64;
                        env.vm_write(base + index * PAGE_SIZE as u64, format!("child {index}").as_bytes())
                            .unwrap();
                        return 0;
                    }
                    let region = env
                        .mmap(
                            0,
                            64 * PAGE_SIZE as u64,
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS,
                            -1,
                            0,
                        )
                        .unwrap();
                    assert_eq!(region.addr, base);
                    // Touch every page so all 64 are resident before forking.
                    for page in 0..64u64 {
                        env.vm_write(base + page * PAGE_SIZE as u64, &[page as u8]).unwrap();
                    }
                    for index in 0..4u8 {
                        let child = env.fork(vec![index]).unwrap();
                        let waited = env.wait(child as i32).unwrap();
                        assert_eq!(waited.exit_code, Some(0));
                    }
                    // Children dirtied their own copies; ours still holds the
                    // page indices we wrote.
                    for page in 0..64u64 {
                        assert_eq!(
                            env.vm_read(base + page * PAGE_SIZE as u64, 1).unwrap(),
                            vec![page as u8]
                        );
                    }
                    0
                }),
                EmscriptenMode::Emterpreter,
            )
            .with_profile(instant_async()),
        ),
    );
    let handle = kernel.spawn("/usr/bin/forkmany", &["forkmany"], &[]).unwrap();
    assert!(handle.wait().success());
    let stats = kernel.stats();
    // 4 forks x 64 resident pages shared; only the dirtied pages copied.
    assert!(stats.pages_shared >= 4 * 64, "stats: {stats:?}");
    assert!(
        stats.pages_copied < stats.pages_shared / 8,
        "COW must copy far fewer pages than it shares: {stats:?}"
    );
    kernel.shutdown();
}

#[test]
fn shm_ping_passes_messages_with_no_data_path_syscalls() {
    let kernel = Kernel::boot(BootConfig::in_memory());
    browsix_utils::register_browsix(kernel.registry(), instant_async());
    // Two independent guest processes bounce 64 round trips through a
    // shm_open ring.  Start pong first; either order works (the ring is
    // created by whoever arrives first).
    let pong = kernel
        .spawn("/usr/bin/shm-ping", &["shm-ping", "-n", "64", "pong", "/ring"], &[])
        .unwrap();
    let ping = kernel
        .spawn("/usr/bin/shm-ping", &["shm-ping", "-n", "64", "ping", "/ring"], &[])
        .unwrap();
    let ping_status = ping.wait();
    let pong_status = pong.wait();
    assert!(ping_status.success(), "ping: {ping_status:?} {}", ping.stdout_string());
    assert!(pong_status.success(), "pong: {pong_status:?}");
    assert_eq!(ping.stdout_string(), "shm-ping: 64 round trips via /ring\n");

    let stats = kernel.stats();
    assert_eq!(stats.shm_objects, 1, "stats: {stats:?}");
    assert_eq!(stats.count("shm_open"), 2);
    assert!(stats.count("mmap") >= 2);
    // The acceptance property: 64 round trips crossed, yet the data path
    // issued zero read/write syscalls — only ping's one-line summary write.
    assert_eq!(stats.count("read"), 0, "stats: {stats:?}");
    assert!(stats.count("write") <= 2, "stats: {stats:?}");
    assert_eq!(stats.count("vm_read"), 0, "shared mappings need no vm_read: {stats:?}");
    assert_eq!(
        stats.count("vm_write"),
        0,
        "shared mappings need no vm_write: {stats:?}"
    );
    kernel.shutdown();
}

#[test]
fn shm_objects_outlive_unlink_until_last_reference() {
    let kernel = boot_node("shmlife", |env: &mut dyn RuntimeEnv| {
        let flags = OpenFlags {
            create: true,
            ..OpenFlags::read_write()
        };
        let fd = env.shm_open("/scratch", flags, 0o600).unwrap();
        env.ftruncate(fd, PAGE_SIZE as u64).unwrap();
        let region = env
            .mmap(0, PAGE_SIZE as u64, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0)
            .unwrap();
        region.shared_write(0, b"still here").unwrap();
        // Unlink the name: the descriptor and the mapping keep working.
        env.shm_unlink("/scratch").unwrap();
        assert_eq!(env.shm_unlink("/scratch"), Err(Errno::ENOENT));
        assert_eq!(env.shm_open("/scratch", OpenFlags::read_write(), 0), Err(Errno::ENOENT));
        assert_eq!(region.shared_read(0, 10).unwrap(), b"still here");
        assert_eq!(env.fstat(fd).unwrap().size, PAGE_SIZE as u64);
        // Exclusive recreation succeeds now that the name is free.
        let flags = OpenFlags {
            create: true,
            exclusive: true,
            ..OpenFlags::read_write()
        };
        let fresh = env.shm_open("/scratch", flags, 0o600).unwrap();
        assert_eq!(env.fstat(fresh).unwrap().size, 0);
        0
    });
    let handle = kernel.spawn("/usr/bin/shmlife", &["shmlife"], &[]).unwrap();
    assert!(handle.wait().success());
    assert_eq!(kernel.stats().shm_objects, 2);
    kernel.shutdown();
}

/// `mmap` refuses a length or an address it cannot map with an error, not
/// an arithmetic overflow in the kernel or a page table sized from the
/// request, and the next mapping works: a length past `u64::MAX` once
/// rounded to pages, a fixed address whose mapping would end past the top
/// of the address space, and private or shared lengths just over the 4 GiB
/// a 32-bit guest can address.
#[test]
fn mmap_refuses_what_it_cannot_map() {
    let kernel = boot_node("overreach", |env: &mut dyn RuntimeEnv| {
        let rw = PROT_READ | PROT_WRITE;
        let page = PAGE_SIZE as u64;
        let past_4g = (1 << 32) + page;
        let cases = [
            (0, u64::MAX, MAP_PRIVATE | MAP_ANONYMOUS, Errno::ENOMEM),
            (u64::MAX - page + 1, page, MAP_PRIVATE | MAP_ANONYMOUS, Errno::EINVAL),
            (0, past_4g, MAP_PRIVATE | MAP_ANONYMOUS, Errno::ENOMEM),
            (0, past_4g, MAP_SHARED | MAP_ANONYMOUS, Errno::ENOMEM),
        ];
        for (addr, len, flags, errno) in cases {
            assert_eq!(
                env.mmap(addr, len, rw, flags, -1, 0).err(),
                Some(errno),
                "{addr:#x} + {len:#x}"
            );
            let region = env.mmap(0, page, rw, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0).unwrap();
            env.vm_write(region.addr, b"ok").unwrap();
            assert_eq!(env.vm_read(region.addr, 2).unwrap(), b"ok");
            // A load whose end is past `u64::MAX` faults.
            assert_eq!(env.vm_read(u64::MAX - 1, 16), Err(Errno::EFAULT));
            env.munmap(region.addr, region.len).unwrap();
        }
        0
    });
    let handle = kernel.spawn("/usr/bin/overreach", &["overreach"], &[]).unwrap();
    assert!(handle.wait().success());
    kernel.shutdown();
}

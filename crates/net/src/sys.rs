//! Minimal, dependency-free Linux syscall FFI for the batched UDP
//! datapath: `ppoll(2)` readiness waits and `sendmmsg(2)` /
//! `recvmmsg(2)` datagram batching.
//!
//! The workspace is self-contained (no crates.io access), so instead of
//! pulling in `libc` we declare the four symbols and three structs the
//! datapath needs, with layouts matching the Linux x86-64/aarch64 glibc
//! and musl ABIs (`struct pollfd`, `struct iovec`, `struct msghdr`,
//! `struct mmsghdr`, `struct timespec`). Errno handling goes through
//! [`std::io::Error::last_os_error`], which reads the thread-local
//! errno the C library maintains.
//!
//! Everything here is `pub(crate)`: the only consumer is
//! [`crate::udp`], and the portable fallback path never touches this
//! module (it is compiled only on Linux — see `crate::lib`).

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// `poll(2)` "readable" event bit.
pub(crate) const POLLIN: i16 = 0x001;
/// `poll(2)` "writable" event bit.
pub(crate) const POLLOUT: i16 = 0x004;
/// `poll(2)` error, hangup and invalid-descriptor bits: reported
/// whatever was asked for, and surfaced by the next read or write.
pub(crate) const POLLERR_HUP_NVAL: i16 = 0x008 | 0x010 | 0x020;

/// `MSG_DONTWAIT`: per-call non-blocking receive.
pub(crate) const MSG_DONTWAIT: i32 = 0x40;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

/// `struct timespec` (64-bit time ABI).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

impl Timespec {
    fn from_duration(d: Duration) -> Timespec {
        Timespec {
            tv_sec: i64::try_from(d.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(d.subsec_nanos()),
        }
    }
}

/// `struct iovec`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct IoVec {
    pub base: *mut u8,
    pub len: usize,
}

/// `struct msghdr` (userspace layout: `size_t` iovlen/controllen).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgHdr {
    pub name: *mut u8,
    pub namelen: u32,
    pub iov: *mut IoVec,
    pub iovlen: usize,
    pub control: *mut u8,
    pub controllen: usize,
    pub flags: i32,
}

impl MsgHdr {
    /// A zeroed header with no name, control data, or iovecs.
    pub(crate) fn zeroed() -> MsgHdr {
        MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: std::ptr::null_mut(),
            iovlen: 0,
            control: std::ptr::null_mut(),
            controllen: 0,
            flags: 0,
        }
    }
}

/// `struct mmsghdr`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct MMsgHdr {
    pub hdr: MsgHdr,
    /// Bytes transferred for this slot (set by the kernel).
    pub len: u32,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut Timespec,
    ) -> i32;
}

/// Largest serialized socket address we pass to the kernel
/// (`sockaddr_in6` is 28 bytes; `sockaddr_in` is 16).
pub(crate) const SOCKADDR_MAX: usize = 28;

/// A socket address serialized to the kernel's `sockaddr` layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawSockAddr {
    pub bytes: [u8; SOCKADDR_MAX],
    pub len: u32,
}

/// Serializes `addr` as a `sockaddr_in` / `sockaddr_in6`.
pub(crate) fn raw_sockaddr(addr: &SocketAddr) -> RawSockAddr {
    let mut bytes = [0u8; SOCKADDR_MAX];
    match addr {
        SocketAddr::V4(v4) => {
            bytes[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
            bytes[2..4].copy_from_slice(&v4.port().to_be_bytes());
            bytes[4..8].copy_from_slice(&v4.ip().octets());
            RawSockAddr { bytes, len: 16 }
        }
        SocketAddr::V6(v6) => {
            bytes[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            bytes[2..4].copy_from_slice(&v6.port().to_be_bytes());
            bytes[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            bytes[8..24].copy_from_slice(&v6.ip().octets());
            bytes[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            RawSockAddr { bytes, len: 28 }
        }
    }
}

/// Waits until one of `fds` is ready for the `events` it registered
/// or `timeout` elapses. Returns `true` if any descriptor became ready,
/// `false` on timeout. `EINTR` is retried with the remaining time.
pub(crate) fn poll_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<bool> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        let ts = Timespec::from_duration(remaining);
        let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        match rc {
            0 => return Ok(false),
            n if n > 0 => return Ok(true),
            _ => {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    if remaining.is_zero() {
                        return Ok(false);
                    }
                    continue;
                }
                return Err(err);
            }
        }
    }
}

/// One `sendmmsg(2)` call: sends a prefix of `msgs`, returning how many
/// were sent. An error pertains to `msgs[0]` (nothing was sent).
///
/// # Errors
///
/// Propagates the kernel error (`EINTR` is retried internally).
pub(crate) fn sendmmsg_once(fd: i32, msgs: &mut [MMsgHdr]) -> io::Result<usize> {
    debug_assert!(!msgs.is_empty());
    loop {
        let rc = unsafe { sendmmsg(fd, msgs.as_mut_ptr(), msgs.len() as u32, 0) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One non-blocking `recvmmsg(2)` call: fills a prefix of `msgs`
/// (lengths land in each slot's `len`), returning how many datagrams
/// arrived.
///
/// # Errors
///
/// Propagates the kernel error (`EINTR` is retried internally);
/// `WouldBlock` means the socket is drained.
pub(crate) fn recvmmsg_once(fd: i32, msgs: &mut [MMsgHdr]) -> io::Result<usize> {
    debug_assert!(!msgs.is_empty());
    loop {
        let rc = unsafe {
            recvmmsg(
                fd,
                msgs.as_mut_ptr(),
                msgs.len() as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    #[test]
    fn raw_sockaddr_v4_layout() {
        let a: SocketAddr = "127.0.0.1:47123".parse().unwrap();
        let raw = raw_sockaddr(&a);
        assert_eq!(raw.len, 16);
        assert_eq!(&raw.bytes[0..2], &AF_INET.to_ne_bytes());
        assert_eq!(&raw.bytes[2..4], &47123u16.to_be_bytes());
        assert_eq!(&raw.bytes[4..8], &[127, 0, 0, 1]);
    }

    #[test]
    fn raw_sockaddr_v6_layout() {
        let a: SocketAddr = "[::1]:9".parse().unwrap();
        let raw = raw_sockaddr(&a);
        assert_eq!(raw.len, 28);
        assert_eq!(&raw.bytes[0..2], &AF_INET6.to_ne_bytes());
        assert_eq!(raw.bytes[23], 1, "::1 low byte");
    }

    #[test]
    fn poll_times_out_on_idle_socket() {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd {
            fd: sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let start = std::time::Instant::now();
        let ready = poll_ready(&mut fds, Duration::from_millis(20)).unwrap();
        assert!(!ready);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn poll_wakes_on_datagram() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"ping", rx.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd {
            fd: rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let ready = poll_ready(&mut fds, Duration::from_secs(2)).unwrap();
        assert!(ready, "datagram makes the socket readable");
    }

    #[test]
    fn sendmmsg_recvmmsg_roundtrip_batch() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_nonblocking(true).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dst = raw_sockaddr(&rx.local_addr().unwrap());

        // Three datagrams in one syscall.
        let payloads: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 4 + i as usize]).collect();
        let mut addrs = [dst; 3];
        let mut iovs: Vec<IoVec> = payloads
            .iter()
            .map(|p| IoVec {
                base: p.as_ptr() as *mut u8,
                len: p.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = (0..3)
            .map(|i| {
                let mut h = MsgHdr::zeroed();
                h.name = addrs[i].bytes.as_mut_ptr();
                h.namelen = addrs[i].len;
                h.iov = &mut iovs[i];
                h.iovlen = 1;
                MMsgHdr { hdr: h, len: 0 }
            })
            .collect();
        let sent = sendmmsg_once(tx.as_raw_fd(), &mut hdrs).unwrap();
        assert_eq!(sent, 3);

        // Drain them in one syscall.
        std::thread::sleep(Duration::from_millis(20));
        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 64]).collect();
        let mut riovs: Vec<IoVec> = bufs
            .iter_mut()
            .map(|b| IoVec {
                base: b.as_mut_ptr(),
                len: b.len(),
            })
            .collect();
        let mut rhdrs: Vec<MMsgHdr> = riovs
            .iter_mut()
            .map(|iov| {
                let mut h = MsgHdr::zeroed();
                h.iov = iov;
                h.iovlen = 1;
                MMsgHdr { hdr: h, len: 0 }
            })
            .collect();
        let got = recvmmsg_once(rx.as_raw_fd(), &mut rhdrs).unwrap();
        assert_eq!(got, 3);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(rhdrs[i].len as usize, p.len());
            assert_eq!(&bufs[i][..p.len()], &p[..]);
        }
        // Socket is now drained.
        let err = recvmmsg_once(rx.as_raw_fd(), &mut rhdrs).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}

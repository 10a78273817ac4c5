//! Shared helpers for the service integration tests: spawn a server on
//! an ephemeral port and speak the line protocol to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use cred_explore::CredError;
use cred_service::{Server, ServiceConfig};

/// The repo's bundled kernel directory.
pub fn kernels_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

/// A running test server plus the handle to join it after `shutdown`.
pub struct TestServer {
    pub addr: String,
    handle: JoinHandle<Result<(), CredError>>,
}

impl TestServer {
    /// Spawn with the bundled kernels and the given config tweaks.
    pub fn spawn(tweak: impl FnOnce(&mut ServiceConfig)) -> TestServer {
        let mut config = ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            kernels_dir: Some(kernels_dir()),
            ..ServiceConfig::default()
        };
        tweak(&mut config);
        let server = Server::bind(config).expect("bind test server");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || server.run());
        TestServer { addr, handle }
    }

    /// Open a client connection.
    pub fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// One-shot request on a fresh connection.
    pub fn request(&self, line: &str) -> String {
        self.connect().request(line)
    }

    /// Ask the server to stop and wait for a clean exit.
    pub fn shutdown(self) {
        let resp = self.request("{\"type\":\"shutdown\"}");
        assert!(resp.contains("\"ok\":true"), "shutdown refused: {resp}");
        self.handle
            .join()
            .expect("server thread must not panic")
            .expect("server must exit cleanly");
    }
}

/// One protocol connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    /// Send one request line and read one response line.
    pub fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    pub fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        self.stream.flush().expect("flush");
    }

    pub fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(!resp.is_empty(), "server closed the connection");
        resp.trim().to_string()
    }

    /// Write bytes exactly as given — no newline appended. Lifecycle
    /// tests use this to leave partial lines on the wire.
    #[allow(dead_code)]
    pub fn send_raw(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("write");
        self.stream.flush().expect("flush");
    }

    /// Surrender the underlying stream (e.g. to watch for the server's
    /// close with a read timeout).
    #[allow(dead_code)]
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

/// Put the socket in "RST on close" mode so dropping it sends a hard
/// reset instead of a graceful FIN (SO_LINGER with a zero timeout).
#[allow(dead_code)]
pub fn set_linger_zero(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is open for the call, and `linger` outlives
    // it with its size passed along.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
}

//! Socket mode: one blocking thread per admitted connection.
//!
//! An acceptor thread owns the listener and makes blocking `accept` calls.
//! Each admitted connection gets its own thread, which runs the pipe-mode
//! session loop ([`serve_pipe`]) over the socket: the same line framing,
//! the same [`Server::handle_line`], and one `write_all` per response line.
//! A connection has at most one request in flight, so its responses stay in
//! request order while different connections repair in parallel.
//!
//! Backpressure is applied at two doors: a connection arriving while
//! `workers + queue_capacity` connections are live is answered with the
//! `overloaded` response and closed, and a `repair` request arriving while
//! `queue_capacity` repairs are in flight gets the same response from
//! [`Server::handle_line`].
//!
//! The drain protocol (no signal handler — drains start from a `shutdown`
//! op or [`TcpServer::shutdown`]):
//!
//! 1. the draining flag flips,
//! 2. every blocked thread is woken: each live connection's read half is
//!    shut down, and one connection to the listener's own address
//!    unblocks `accept`,
//! 3. the acceptor stops accepting; each connection thread answers the
//!    request it is handling, if any, starts no new one and closes. Idle
//!    connections close at once.

use crate::lock;
use crate::proto;
use crate::server::{serve_pipe, Server};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// State shared by the acceptor and every connection thread.
struct Shared {
    server: Arc<Server>,
    /// The bound address, which a drain connects to in order to wake the
    /// acceptor's blocking `accept`.
    addr: SocketAddr,
    /// A clone of every live connection's stream, by token: a drain shuts
    /// down their read halves to wake the threads blocked in `read`.
    live: Mutex<BTreeMap<u64, TcpStream>>,
    /// The wake-up has been sent (a drain needs it once).
    woken: AtomicBool,
}

impl Shared {
    /// Begin a graceful drain and wake every thread blocked in `accept` or
    /// `read`.
    fn drain(&self) {
        self.server.begin_drain();
        if self.woken.swap(true, Ordering::SeqCst) {
            return;
        }
        for stream in lock(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// A live connection: its registry entry and its tick of the `connections`
/// gauge, both given back when its thread ends (also by unwinding).
struct Live {
    shared: Arc<Shared>,
    token: u64,
}

impl Drop for Live {
    fn drop(&mut self) {
        lock(&self.shared.live).remove(&self.token);
        self.shared.server.metrics().connection_closed();
    }
}

/// A running TCP front-end.
pub struct TcpServer {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the acceptor thread.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            server,
            addr: listener.local_addr()?,
            live: Mutex::new(BTreeMap::new()),
            woken: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(TcpServer { shared, acceptor })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin a graceful drain from outside the protocol.
    pub fn shutdown(&self) {
        self.shared.drain();
    }

    /// Wait for the drain to complete and every thread to exit.
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Answer an over-capacity connection with the backpressure response. The
/// socket is fresh (empty send buffer), so one short write succeeds in
/// practice; the timeout keeps a peer that never reads from stalling the
/// acceptor.
fn refuse(mut stream: TcpStream, server: &Server) {
    server.metrics().record_overloaded();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = writeln!(stream, "{}", proto::overloaded());
}

/// Accept until a drain begins, then wait for every connection thread.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let server = &shared.server;
    let admit_cap = server.config().workers.max(1) + server.config().queue_capacity;
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut next_token = 0u64;
    loop {
        let accepted = listener.accept();
        // Checked under the registry lock: a drain either finds this
        // connection in the registry or is seen here.
        let mut registry = lock(&shared.live);
        if server.is_draining() {
            break;
        }
        let Ok((stream, _)) = accepted else { continue };
        if registry.len() >= admit_cap {
            drop(registry);
            refuse(stream, server);
            continue;
        }
        // Small response lines must not wait for delayed ACKs.
        let Ok(clone) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
            continue;
        };
        let token = next_token;
        next_token += 1;
        registry.insert(token, clone);
        drop(registry);
        server.metrics().connection_opened();
        let live = Live {
            shared: Arc::clone(shared),
            token,
        };
        sessions.retain(|handle| !handle.is_finished());
        // A failed spawn drops the guard and the stream: the peer sees a
        // close.
        if let Ok(handle) = std::thread::Builder::new().spawn(move || session(&live, &stream)) {
            sessions.push(handle);
        }
    }
    for handle in sessions {
        let _ = handle.join();
    }
}

/// One connection's thread: the pipe-mode session loop over the socket.
fn session(live: &Live, stream: &TcpStream) {
    let shared = &live.shared;
    let server = &*shared.server;
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let _ = serve_pipe(server, &mut reader, &mut writer);
    // A `shutdown` op ends its own session: wake every other thread.
    if server.is_draining() {
        shared.drain();
    }
}

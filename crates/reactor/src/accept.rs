//! Readiness waits for the blocking transports' acceptor threads.
//!
//! A blocking-transport acceptor accepts from a nonblocking listener so
//! it can watch its server's drain flag between connections. Instead of
//! sleeping between `accept` polls, it parks in [`AcceptWait::pause`]:
//! a level-triggered wait on the listener plus a [`Waker`] that the
//! server's drain fires. A new connection is taken as soon as it is
//! queued, an idle acceptor never wakes on a timer, and a drain stops
//! it at once.
//!
//! Where no poller can be built (non-Linux hosts), the wait falls back
//! to a short sleep per poll, the loop those hosts have always run.

use crate::poller::{Events, Interest, Poller};
use crate::waker::{waker_pair, Waker, WakerSource};
use std::io;
use std::net::TcpListener;
use std::thread;
use std::time::Duration;

/// Sleep per `accept` poll without a poller, and after an `accept`
/// error other than `WouldBlock` (which can leave the listener
/// readable, such as running out of descriptors).
const RETRY_SLEEP: Duration = Duration::from_millis(2);

/// Poller token of the listener.
const LISTENER: u64 = 0;
/// Poller token of the waker.
const WAKER: u64 = 1;

/// Parks an acceptor thread until its listener has a connection queued
/// or its [`Waker`] fires (see the module docs).
pub struct AcceptWait {
    ready: Option<(Poller, WakerSource, Events)>,
}

impl AcceptWait {
    /// Builds the wait for `listener`, which must be nonblocking, and
    /// returns it with the waker that ends a pause early; call
    /// [`Waker::wake`] when the acceptor should recheck its drain flag.
    /// Where no poller or waker can be built, the wait sleeps instead
    /// and there is no waker.
    #[must_use]
    pub fn new(listener: &TcpListener) -> (Self, Option<Waker>) {
        match Self::ready(listener) {
            Ok((ready, waker)) => (Self { ready: Some(ready) }, Some(waker)),
            Err(_) => (Self { ready: None }, None),
        }
    }

    fn ready(listener: &TcpListener) -> io::Result<((Poller, WakerSource, Events), Waker)> {
        let poller = Poller::new()?;
        let (waker, source) = waker_pair()?;
        poller.register(listener, LISTENER, Interest::READABLE)?;
        poller.register(&source, WAKER, Interest::READABLE)?;
        Ok(((poller, source, Events::with_capacity(2)), waker))
    }

    /// Waits after `accept` returned `err`: on `WouldBlock`, until the
    /// listener is readable or the waker fired (at once if either
    /// already holds); after any other error, or without a poller, for
    /// a short fixed sleep. The caller rechecks its drain flag and
    /// accepts again either way.
    pub fn pause(&mut self, err: &io::Error) {
        match &mut self.ready {
            Some((poller, _, events)) if err.kind() == io::ErrorKind::WouldBlock => {
                if poller.wait(events, None).is_err() {
                    thread::sleep(RETRY_SLEEP);
                }
            }
            _ => thread::sleep(RETRY_SLEEP),
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::time::Instant;

    fn listener() -> TcpListener {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();
        l
    }

    fn would_block() -> io::Error {
        io::Error::from(io::ErrorKind::WouldBlock)
    }

    #[test]
    fn pause_returns_when_a_connection_is_queued() {
        let l = listener();
        let addr = l.local_addr().unwrap();
        let (mut wait, waker) = AcceptWait::new(&l);
        assert!(waker.is_some(), "a readiness wait on Linux");
        let client = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            TcpStream::connect(addr).unwrap()
        });
        wait.pause(&would_block());
        assert!(l.accept().is_ok());
        drop(client.join().unwrap());
    }

    #[test]
    fn waker_ends_an_idle_pause() {
        let l = listener();
        let (mut wait, waker) = AcceptWait::new(&l);
        let waker = waker.expect("a waker on Linux");
        let (tx, rx) = mpsc::channel();
        let parked = thread::spawn(move || {
            wait.pause(&would_block());
            tx.send(Instant::now()).unwrap();
        });
        thread::sleep(Duration::from_millis(30));
        assert!(rx.try_recv().is_err(), "an idle pause must not return");
        let woke = Instant::now();
        waker.wake();
        let returned = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(returned.duration_since(woke) < Duration::from_secs(1));
        parked.join().unwrap();
    }
}

//! A byte-counting loopback relay between a distributed coordinator and one
//! shard worker.  It forwards newline-framed lines unchanged in both
//! directions and classifies each request by its `op`, so the traced `dist`
//! run measures the coordinator's real traffic: bytes per op class,
//! messages, halo supersteps, the time requests spend with the workers, and
//! the coordinator's time between exchanges.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a request line is, by its `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// `shard_submit`, `boundary`, `shard_result`: the count-query protocol.
    Count,
    /// `halo`: the ghost-halo superstep protocol.
    Halo,
    /// Everything else (`ping`, `stats`, …).
    Control,
}

/// Traffic through every relay sharing one tally.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Request plus response bytes (newlines included) of count ops.
    pub count_bytes: u64,
    /// Request plus response bytes of halo ops.
    pub halo_bytes: u64,
    /// Lines forwarded, both directions.
    pub messages: u64,
    /// Halo `step` requests.
    pub steps: u64,
    /// Σ over requests of request → response time, all connections: the
    /// workers' busy time, summed over workers.
    pub worker_busy_s: f64,
    /// Time with no request outstanding on any connection, from a response
    /// to the next request (the coordinator's own work between exchanges).
    pub coordinator_s: f64,
    /// Send times of the requests still waiting for their response.
    outstanding: Vec<Instant>,
    last_change: Instant,
    between_exchanges: bool,
}

impl Tally {
    /// A zeroed tally, shared by the relays of one fleet.
    pub fn shared() -> Arc<Mutex<Tally>> {
        Arc::new(Mutex::new(Tally::new(Instant::now())))
    }

    fn new(now: Instant) -> Tally {
        Tally {
            count_bytes: 0,
            halo_bytes: 0,
            messages: 0,
            steps: 0,
            worker_busy_s: 0.0,
            coordinator_s: 0.0,
            outstanding: Vec::new(),
            last_change: now,
            between_exchanges: false,
        }
    }

    /// Zeroes the counters; call between exchanges only.
    pub fn reset(&mut self) {
        *self = Tally::new(Instant::now());
    }

    fn add_bytes(&mut self, class: OpClass, bytes: usize) {
        let bytes = bytes as u64;
        match class {
            OpClass::Count => self.count_bytes += bytes,
            OpClass::Halo => self.halo_bytes += bytes,
            OpClass::Control => {}
        }
        self.messages += 1;
    }

    fn advance(&mut self, now: Instant) {
        if self.outstanding.is_empty() && self.between_exchanges {
            self.coordinator_s += now.duration_since(self.last_change).as_secs_f64();
        }
        self.last_change = now;
    }

    fn request(&mut self, class: OpClass, step: bool, bytes: usize, now: Instant) -> Instant {
        self.advance(now);
        self.add_bytes(class, bytes);
        self.steps += u64::from(step);
        self.outstanding.push(now);
        now
    }

    fn response(&mut self, sent: Instant, class: OpClass, bytes: usize, now: Instant) {
        self.advance(now);
        self.add_bytes(class, bytes);
        self.worker_busy_s += now.duration_since(sent).as_secs_f64();
        if let Some(i) = self.outstanding.iter().position(|&t| t == sent) {
            self.outstanding.swap_remove(i);
        }
        self.between_exchanges = self.outstanding.is_empty();
    }
}

/// The string value of `"key": "…"` in a JSON line, found by scanning (the
/// relay must not parse megabyte halo pages).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let at = line.find(&quoted)? + quoted.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Classifies a request line by its `op`.
fn classify(line: &str) -> (OpClass, bool) {
    match field(line, "op") {
        Some("shard_submit" | "boundary" | "shard_result") => (OpClass::Count, false),
        Some("halo") => (OpClass::Halo, field(line, "phase") == Some("step")),
        _ => (OpClass::Control, false),
    }
}

/// A running relay: one listener, two forwarding threads per connection.
pub struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: Option<JoinHandle<()>>,
}

impl Relay {
    /// Listens on a free loopback port and relays every connection to
    /// `target`, counting into `tally`.
    pub fn start(target: SocketAddr, tally: Arc<Mutex<Tally>>) -> Result<Relay, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind relay: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("relay address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let listener = std::thread::spawn(move || {
            let mut pipes = Vec::new();
            for client in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { continue };
                let Ok(worker) = TcpStream::connect(target) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                pipes.extend(pipe(client, worker, tally.clone()));
            }
            for handle in pipes {
                let _ = handle.join();
            }
        });
        Ok(Relay {
            addr,
            stop,
            listener: Some(listener),
        })
    }

    /// The address the coordinator connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every thread; the coordinator must have
    /// closed its connections first.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
    }
}

/// Starts the two forwarding threads of one connection.
fn pipe(client: TcpStream, worker: TcpStream, tally: Arc<Mutex<Tally>>) -> Vec<JoinHandle<()>> {
    let (Ok(client_out), Ok(worker_out)) = (client.try_clone(), worker.try_clone()) else {
        return Vec::new();
    };
    let sent: Arc<Mutex<std::collections::VecDeque<(Instant, OpClass)>>> = Arc::default();
    let requests = {
        let (tally, sent) = (tally.clone(), sent.clone());
        std::thread::spawn(move || {
            forward(client, &worker_out, |line| {
                let (class, step) = classify(line);
                let at = tally.lock().expect("tally lock").request(
                    class,
                    step,
                    line.len() + 1,
                    Instant::now(),
                );
                sent.lock().expect("sent lock").push_back((at, class));
            });
            let _ = worker_out.shutdown(Shutdown::Write);
        })
    };
    let responses = std::thread::spawn(move || {
        forward(worker, &client_out, |line| {
            let request = sent.lock().expect("sent lock").pop_front();
            if let Some((at, class)) = request {
                tally.lock().expect("tally lock").response(
                    at,
                    class,
                    line.len() + 1,
                    Instant::now(),
                );
            }
        });
        let _ = client_out.shutdown(Shutdown::Both);
    });
    vec![requests, responses]
}

/// Copies lines from `from` to `to` until either side closes, calling
/// `observe` on each line before forwarding it.
fn forward(from: TcpStream, to: &TcpStream, mut observe: impl FnMut(&str)) {
    let mut reader = BufReader::with_capacity(1 << 16, from);
    let mut writer = BufWriter::with_capacity(1 << 16, to);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        observe(line.trim_end_matches('\n'));
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_classified_by_op_and_phase() {
        assert_eq!(
            classify(r#"{"op": "boundary", "job": "t"}"#),
            (OpClass::Count, false)
        );
        assert_eq!(
            classify(r#"{"op": "halo", "kernel": {"type": "bfs"}, "phase": "step", "step": 3}"#),
            (OpClass::Halo, true)
        );
        assert_eq!(
            classify(r#"{"op":"halo","phase":"feed"}"#),
            (OpClass::Halo, false)
        );
        assert_eq!(classify(r#"{"op": "ping"}"#), (OpClass::Control, false));
        assert_eq!(classify("not json"), (OpClass::Control, false));
    }

    /// Two workers answering one after the other, as in a chained halo
    /// superstep, with coordinator work before, between and after the
    /// exchanges: the mean worker's busy time plus the coordinator's time
    /// between exchanges covers only part of the wall-clock.
    #[test]
    fn busy_and_coordinator_time_leave_unaccounted_time_visible() {
        let start = Instant::now();
        let at = |ms: u64| start + std::time::Duration::from_millis(ms);
        let mut tally = Tally::new(start);
        // Worker A busy 1..3 ms, worker B 3..5 ms, the coordinator alone
        // 5..6 ms, both workers 6..8 ms; the call returns at 10 ms.
        let a = tally.request(OpClass::Halo, true, 10, at(1));
        tally.response(a, OpClass::Halo, 20, at(3));
        let b = tally.request(OpClass::Halo, true, 10, at(3));
        tally.response(b, OpClass::Halo, 20, at(5));
        let a = tally.request(OpClass::Count, false, 10, at(6));
        let b = tally.request(OpClass::Count, false, 10, at(6));
        tally.response(a, OpClass::Count, 20, at(8));
        tally.response(b, OpClass::Count, 20, at(8));
        assert!((tally.worker_busy_s - 0.008).abs() < 1e-9);
        assert!((tally.coordinator_s - 0.001).abs() < 1e-9);
        assert_eq!((tally.halo_bytes, tally.count_bytes), (60, 60));
        assert_eq!((tally.messages, tally.steps), (8, 2));
        let per_worker = tally.worker_busy_s / 2.0;
        let coverage = (per_worker + tally.coordinator_s) / 0.010;
        assert!((coverage - 0.5).abs() < 1e-6, "coverage {coverage}");
    }
}

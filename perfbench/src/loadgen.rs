//! Open-loop load generation over keep-alive connections.
//!
//! Each connection has a schedule of due times. A request is sent at its
//! due time, or as soon as the connection is free if an earlier exchange
//! is still in flight, and its latency is measured **from the due time**:
//! a stall is charged to every request queued behind it, not just to the
//! one that hit it. The generator also records how late it sent each
//! request relative to when it could have (the later of the due time and
//! the previous response), which is its own slowness, not the server's.

use crate::http::{Client, Response};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The outcome of one scheduled request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Due time, from the schedule's start.
    pub due: Duration,
    /// From due time to the full response; `None` if no response came.
    pub latency: Option<Duration>,
    /// From send to the full response.
    pub service: Option<Duration>,
    /// How late the generator sent the request.
    pub late: Duration,
    /// Response status (0 without a response).
    pub status: u16,
    /// A 200 whose answer passed the check.
    pub ok: bool,
    /// Whether the exchange was traced.
    pub traced: bool,
}

/// Builds request `i`.
pub type RequestFn<'a> = Box<dyn FnMut(usize) -> Vec<u8> + Send + 'a>;
/// Checks the response to request `i`.
pub type CheckFn<'a> = Box<dyn FnMut(usize, &Response) -> bool + Send + 'a>;

/// Everything one connection's generator needs.
pub struct Conn<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// An already open connection to use first (reconnects open new ones).
    pub client: Option<Client>,
    /// Schedule start.
    pub t0: Instant,
    /// Due times, ascending.
    pub dues: Vec<Duration>,
    /// After this instant, requests not yet answered are given up.
    pub give_up: Instant,
    /// Builds request `i` (the generator's own work).
    pub request: RequestFn<'a>,
    /// Checks response `i`.
    pub check: CheckFn<'a>,
    /// Traces every second exchange when set.
    pub tracer: Option<Tracer>,
}

/// Runs one connection's schedule to the end (or to `give_up`).
pub fn run(mut c: Conn<'_>) -> (Vec<Sample>, Option<Tracer>) {
    let mut samples = Vec::with_capacity(c.dues.len());
    let mut client = c.client.take();
    let mut free_at = c.t0;
    for (i, &due) in c.dues.iter().enumerate() {
        let due_at = c.t0 + due;
        wait_until(due_at);
        let ready = due_at.max(free_at);
        let mut sample = Sample {
            due,
            latency: None,
            service: None,
            late: Duration::ZERO,
            status: 0,
            ok: false,
            traced: c.tracer.is_some() && i.is_multiple_of(2),
        };
        let remaining = c.give_up.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            samples.push(sample);
            continue;
        }
        let req = (c.request)(i);
        if client.is_none() {
            client = Client::connect(c.addr, remaining).ok();
        }
        let Some(conn) = client.as_mut() else {
            samples.push(sample);
            continue;
        };
        let sent = Instant::now();
        sample.late = sent.saturating_duration_since(ready);
        let span = match (&mut c.tracer, sample.traced) {
            (Some(tr), true) => Some(tr.begin("loadgen.request", i as u64)),
            _ => None,
        };
        let result = conn
            .set_timeout(remaining)
            .and_then(|()| conn.exchange(&req));
        if let (Some(tr), Some(id)) = (&mut c.tracer, span) {
            tr.end(id);
        }
        let done = Instant::now();
        free_at = done;
        match result {
            Ok(resp) => {
                sample.latency = Some(done - due_at);
                sample.service = Some(done - sent);
                sample.status = resp.status;
                sample.ok = resp.status == 200 && (c.check)(i, &resp);
                if resp.close {
                    client = None;
                }
            }
            Err(_) => client = None,
        }
        samples.push(sample);
    }
    (samples, c.tracer)
}

/// How long before a due time the generator stops sleeping and spins, so
/// that timer wake-up delay does not make it late.
const SPIN: Duration = Duration::from_millis(2);

/// Sleeps, then spins, until `at`.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if now + SPIN < at {
        std::thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// The 99th percentile of the generator's lateness, in ms.
pub fn late_p99_ms(samples: &[Sample]) -> f64 {
    let late: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    crate::stats::percentile(&late, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A fake server answering `requests` requests on one connection,
    /// stalling `stall` before answering request number `stall_at`.
    fn fake_server(
        requests: usize,
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for k in 0..requests {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut chunk).expect("read");
                    assert!(n > 0, "client hung up early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
                buf.drain(..end);
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .expect("write");
            }
        });
        (addr, h)
    }

    fn conn<'a>(addr: SocketAddr, dues: Vec<Duration>, request: RequestFn<'a>) -> Conn<'a> {
        let t0 = Instant::now() + Duration::from_millis(20);
        Conn {
            addr,
            client: None,
            t0,
            dues,
            give_up: t0 + Duration::from_secs(10),
            request,
            check: Box::new(|_, r| r.body == b"ok"),
            tracer: None,
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        let (n, stall_at, stall) = (60, 10, Duration::from_millis(150));
        let (addr, server) = fake_server(n, stall_at, stall);
        let every = Duration::from_millis(5);
        let dues: Vec<Duration> = (0..n as u32).map(|i| every * i).collect();
        let req = crate::http::request("GET", "/x", false);
        let (samples, _) = run(conn(addr, dues, Box::new(move |_| req.clone())));
        server.join().expect("fake server");
        assert!(samples.iter().all(|s| s.ok), "{samples:?}");
        // The stalled answer came back no earlier than due + stall; every
        // request due before then waited for it, and its latency says so.
        let release = samples[stall_at].due + stall;
        let queued: Vec<&Sample> = samples[stall_at + 1..]
            .iter()
            .filter(|s| s.due < release)
            .collect();
        assert!(queued.len() >= 25, "{}", queued.len());
        for s in &queued {
            let waited = release - s.due;
            let lat = s.latency.expect("answered");
            assert!(
                lat >= waited,
                "due {:?}: latency {lat:?} < wait {waited:?}",
                s.due
            );
        }
        // The generator itself kept up: the wait is the server's, so it is
        // not reported as generator lateness (the margin allows for a
        // preempted thread, well short of the 150 ms stall).
        assert!(late_p99_ms(&samples) < 75.0, "{}", late_p99_ms(&samples));
    }

    #[test]
    fn late_p99_reports_a_generator_that_fell_behind() {
        let n = 30;
        let (addr, server) = fake_server(n, usize::MAX, Duration::ZERO);
        let every = Duration::from_millis(2);
        let dues: Vec<Duration> = (0..n as u32).map(|i| every * i).collect();
        let req = crate::http::request("GET", "/x", false);
        // Building each request takes 10 ms: five times the spacing.
        let slow = Box::new(move |_| {
            std::thread::sleep(Duration::from_millis(10));
            req.clone()
        });
        let (samples, _) = run(conn(addr, dues, slow));
        server.join().expect("fake server");
        assert!(samples.iter().all(|s| s.ok));
        assert!(late_p99_ms(&samples) >= 9.0, "{}", late_p99_ms(&samples));
        // And the lateness lands in the latency measured from due time.
        let last = samples.last().and_then(|s| s.latency).expect("answered");
        assert!(last >= Duration::from_millis(200), "{last:?}");
    }
}

//! Load generation over the server's socket protocol.
//!
//! Requests are encoded before the clock starts and sent as raw frames
//! (`protocol::write_frame`/`read_frame`), so the generator does no JSON
//! work while it measures and the benchmark sees the exact bytes the
//! server answered with.
//!
//! The open loop schedules request `k` at `start + k / rate` whatever the
//! server is doing; each connection takes the next due request as soon
//! as it is free. Latency is timed from the request's *due* time, so a
//! stall also charges the requests queued behind it.

use crate::inputs::{fingerprint, Fingerprint};
use crate::util::ms;
use comparesets_serve::protocol::{read_frame, write_frame};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it.
pub struct Sample {
    /// Index into the frame slice the request came from.
    pub index: usize,
    /// Due time, relative to the loop's start.
    pub due: Duration,
    /// Sent minus due: how far behind schedule the request went out.
    pub lateness_ms: f64,
    /// Sent minus the later of due time and the moment a connection was
    /// free: the generator's own scheduling delay.
    pub lag_ms: f64,
    /// Answer time minus due time; infinite when the request failed.
    pub latency_ms: f64,
    /// The answer's fingerprint (`None` on transport failure).
    pub response: Option<Fingerprint>,
    /// Writer events acknowledged before this request was sent (every
    /// one of them is visible to it).
    pub acked_before: u64,
    /// Writer events sent before this answer arrived (none after them
    /// can be visible to it).
    pub sent_before_answer: u64,
}

/// Progress of a concurrent writer, read by solves to bound which corpus
/// version answered them.
#[derive(Default)]
pub struct WriterProgress {
    pub sent: AtomicU64,
    pub acked: AtomicU64,
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// One request/response exchange of raw frames.
pub fn exchange(stream: &mut TcpStream, frame: &[u8]) -> Option<Vec<u8>> {
    write_frame(stream, frame).ok()?;
    read_frame(stream).ok().flatten()
}

/// Open-loop run of `frames` at `rate` requests/s over `conns`
/// connections. Once `stop` is set, requests due after that moment are
/// not sent, but every request already due still is, so a stall is
/// charged in full. Returns samples in index order.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    rate: f64,
    conns: usize,
    stop: &AtomicBool,
    writer: &WriterProgress,
) -> std::io::Result<Vec<Sample>> {
    let streams = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let interval = 1.0 / rate;
    let stopped_at: Mutex<Option<Instant>> = Mutex::new(None);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                let next = &next;
                let stopped_at = &stopped_at;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let free = Instant::now();
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= frames.len() {
                            break;
                        }
                        let due_off = Duration::from_secs_f64(k as f64 * interval);
                        let due = start + due_off;
                        let mut cut = stopped_at.lock().expect("stop time lock poisoned");
                        if cut.is_none() && stop.load(Ordering::SeqCst) {
                            *cut = Some(Instant::now());
                        }
                        if cut.is_some_and(|at| due > at) {
                            break;
                        }
                        drop(cut);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let acked_before = writer.acked.load(Ordering::SeqCst);
                        let sent = Instant::now();
                        let response = exchange(&mut stream, &frames[k]);
                        let done = Instant::now();
                        let response = response.as_deref().map(fingerprint);
                        let sent_before_answer = writer.sent.load(Ordering::SeqCst);
                        let ok = response.is_some();
                        out.push(Sample {
                            index: k,
                            due: due_off,
                            lateness_ms: ms(sent.saturating_duration_since(due)),
                            lag_ms: ms(sent.saturating_duration_since(due.max(free))),
                            latency_ms: if ok {
                                ms(done.saturating_duration_since(due))
                            } else {
                                f64::INFINITY
                            },
                            response,
                            acked_before,
                            sent_before_answer,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    Ok(samples)
}

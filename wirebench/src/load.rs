//! The closed-loop load generator: one thread per connection sends a
//! burst, flushes it, reads and checks every reply, then sends the
//! next. Latency runs from the flush of a request's burst to the
//! arrival of its reply.

use crate::workload::{message_poster, Burst, Expect, Generator, CONNS};
use dego_server::{Client, ClientReply, TIMELINE_LIMIT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How many check failures a connection describes on stderr.
const ERRORS_KEPT: usize = 5;

/// A load connection and its request stream.
pub struct Conn {
    pub client: Client,
    pub generator: Generator,
    pub index: usize,
}

/// The highest message id each connection has sent, published before
/// the `POST` leaves, so a `TIMELINE` on any connection can tell a
/// posted id from an invented one.
#[derive(Default)]
pub struct Posted([AtomicU64; CONNS]);

impl Posted {
    fn publish(&self, conn: usize, n: u64) {
        self.0[conn].fetch_max(n, Ordering::SeqCst);
    }

    fn was_posted(&self, id: u64) -> bool {
        message_poster(id)
            .is_some_and(|(conn, n)| n >= 1 && n <= self.0[conn].load(Ordering::SeqCst))
    }
}

/// One measured window.
pub struct Window {
    pub seconds: f64,
    /// The window is cut into this many equal slices; throughput and
    /// latency percentiles are taken per slice and reported as medians.
    pub slices: usize,
    /// Record the benchmark's own spans and a sample of replies.
    pub traced: bool,
}

/// One burst's client-side timeline, in ns from the window start.
#[derive(Clone, Copy, Debug)]
pub struct BurstTimes {
    pub conn: usize,
    pub requests: u32,
    /// Generation of the burst began.
    pub start: u64,
    /// The flush began.
    pub flush: u64,
    /// The flush returned.
    pub flushed: u64,
    /// The first reply arrived.
    pub first: u64,
    /// The last reply arrived.
    pub last: u64,
}

/// What one connection saw in a window.
pub struct ConnResult {
    /// Correct replies per slice.
    pub slice_ops: Vec<u64>,
    /// Latency of each correct reply, ns, per slice.
    pub slice_lat: Vec<Vec<u32>>,
    /// Requests sent.
    pub attempted: u64,
    /// Error replies, wrong replies and unanswered requests.
    pub failed: u64,
    /// Replies received, correct or not.
    pub replies: u64,
    pub errors: Vec<String>,
    /// Traced windows only.
    pub bursts: Vec<BurstTimes>,
    /// Traced windows only: the first replies, for the render replay.
    pub reply_sample: Vec<ClientReply>,
}

impl ConnResult {
    fn new(slices: usize) -> ConnResult {
        ConnResult {
            slice_ops: vec![0; slices],
            slice_lat: vec![Vec::new(); slices],
            attempted: 0,
            failed: 0,
            replies: 0,
            errors: Vec::new(),
            bursts: Vec::new(),
            reply_sample: Vec::new(),
        }
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(why);
        }
    }
}

/// How many replies a traced window keeps for the render replay.
const REPLY_SAMPLE: usize = 50_000;

/// Extra time a window may overrun before the watchdog kills the server
/// so that blocked reads return.
const WATCHDOG_GRACE: Duration = Duration::from_secs(30);

/// Drive every connection for one window. `kill` is called if the
/// window overruns by [`WATCHDOG_GRACE`].
pub fn drive(
    conns: &mut [Conn],
    window: &Window,
    posted: &Posted,
    kill: &(dyn Fn() + Sync),
) -> Vec<ConnResult> {
    let start = Instant::now();
    let length = Duration::from_secs_f64(window.seconds);
    let (done, watch) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) =
                watch.recv_timeout(length + WATCHDOG_GRACE)
            {
                eprintln!("wirebench: window overran; killing the server");
                kill();
            }
        });
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| s.spawn(move || run_conn(conn, start, length, window, posted)))
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let _ = done.send(());
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

fn run_conn(
    conn: &mut Conn,
    start: Instant,
    length: Duration,
    window: &Window,
    posted: &Posted,
) -> ConnResult {
    let mut res = ConnResult::new(window.slices);
    let slice_ns = (length.as_nanos() as u64 / window.slices as u64).max(1);
    let end_ns = length.as_nanos() as u64;
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    loop {
        let t_start = Instant::now();
        if t_start >= start + length {
            break;
        }
        let burst = conn.generator.next_burst();
        let n = burst.lines.len() as u64;
        res.attempted += n;
        if let Err(e) = send(conn, &burst, posted) {
            res.fail(n, format!("send: {e}"));
            break;
        }
        let t_flush = Instant::now();
        if let Err(e) = conn.client.flush() {
            res.fail(n, format!("flush: {e}"));
            break;
        }
        let t_flushed = Instant::now();
        let (mut first, mut last) = (t_flushed, t_flushed);
        let mut broken = false;
        for (i, expect) in burst.expects.iter().enumerate() {
            let reply = match conn.client.read_reply() {
                Ok(reply) => reply,
                Err(e) => {
                    res.fail(n - i as u64, format!("read: {e}"));
                    broken = true;
                    break;
                }
            };
            let t = Instant::now();
            if i == 0 {
                first = t;
            }
            last = t;
            res.replies += 1;
            match check(expect, &reply, posted) {
                Ok(()) => {
                    let at = ns(t);
                    if at < end_ns {
                        let slice = ((at / slice_ns) as usize).min(window.slices - 1);
                        res.slice_ops[slice] += 1;
                        let lat = t.duration_since(t_flush).as_nanos().min(u32::MAX as u128);
                        res.slice_lat[slice].push(lat as u32);
                    }
                }
                Err(why) => res.fail(1, format!("{}: {why}", burst.lines[i])),
            }
            if window.traced && res.reply_sample.len() < REPLY_SAMPLE {
                res.reply_sample.push(reply);
            }
        }
        if broken {
            break;
        }
        if window.traced {
            res.bursts.push(BurstTimes {
                conn: conn.index,
                requests: n as u32,
                start: ns(t_start),
                flush: ns(t_flush),
                flushed: ns(t_flushed),
                first: ns(first),
                last: ns(last),
            });
        }
    }
    res
}

fn send(conn: &mut Conn, burst: &Burst, posted: &Posted) -> std::io::Result<()> {
    for (line, expect) in burst.lines.iter().zip(&burst.expects) {
        if let Expect::Posted(id) = expect {
            if let Some((poster, n)) = message_poster(*id) {
                posted.publish(poster, n);
            }
        }
        conn.client.send(line)?;
    }
    Ok(())
}

/// Send `burst` in chunks of `chunk` pipelined requests and check every
/// reply; returns the first failure.
pub fn pipeline_checked(client: &mut Client, burst: &Burst, chunk: usize) -> Result<(), String> {
    let posted = Posted::default();
    for (lines, expects) in burst.lines.chunks(chunk).zip(burst.expects.chunks(chunk)) {
        let replies = client
            .pipeline(lines)
            .map_err(|e| format!("pipeline: {e}"))?;
        for ((line, expect), reply) in lines.iter().zip(expects).zip(&replies) {
            check(expect, reply, &posted).map_err(|why| format!("{line}: {why}"))?;
        }
    }
    Ok(())
}

/// Does `reply` satisfy `expect`? The reply type must match the verb,
/// and its content must match what the connection's own model predicts.
pub fn check(expect: &Expect, reply: &ClientReply, posted: &Posted) -> Result<(), String> {
    let ok = match (expect, reply) {
        (Expect::Ok | Expect::Posted(_), ClientReply::Status(s)) => s == "OK",
        (Expect::Value(want), ClientReply::Value(got)) => want == got,
        (Expect::Int(want), ClientReply::Int(got)) => want == got,
        (Expect::Timeline, ClientReply::Array(items)) => return check_timeline(items, posted),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {reply:?}"))
    }
}

fn check_timeline(items: &[String], posted: &Posted) -> Result<(), String> {
    if items.len() > TIMELINE_LIMIT {
        return Err(format!("{} entries, limit {TIMELINE_LIMIT}", items.len()));
    }
    // Each connection posts one message at a time, so its ids must
    // appear newest first.
    let mut newest_seen = [u64::MAX; CONNS];
    for item in items {
        let id: u64 = item
            .strip_prefix(':')
            .and_then(|m| m.parse().ok())
            .ok_or_else(|| format!("bad timeline entry {item:?}"))?;
        if !posted.was_posted(id) {
            return Err(format!("timeline holds {id}, which was never posted"));
        }
        let (conn, n) = message_poster(id).expect("posted ids decode");
        if n >= newest_seen[conn] {
            return Err(format!("timeline {items:?} is not newest first"));
        }
        newest_seen[conn] = n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::message_id;

    #[test]
    fn replies_must_match_their_verb() {
        let posted = Posted::default();
        let ok = ClientReply::Status("OK".into());
        assert!(check(&Expect::Ok, &ok, &posted).is_ok());
        assert!(check(&Expect::Int(3), &ok, &posted).is_err());
        assert!(check(&Expect::Int(3), &ClientReply::Int(4), &posted).is_err());
        let err = ClientReply::Error("SHED shard=1".into());
        assert!(check(&Expect::Ok, &err, &posted).is_err());
        let v = ClientReply::Value("a".into());
        assert!(check(&Expect::Value("a".into()), &v, &posted).is_ok());
        assert!(check(&Expect::Value("b".into()), &v, &posted).is_err());
    }

    #[test]
    fn timelines_hold_only_posted_ids_newest_first() {
        let posted = Posted::default();
        posted.publish(0, 2);
        posted.publish(1, 1);
        let tl = |ids: &[u64]| ClientReply::Array(ids.iter().map(|i| format!(":{i}")).collect());
        let (a1, a2, b1) = (message_id(0, 1), message_id(0, 2), message_id(1, 1));
        assert!(check(&Expect::Timeline, &tl(&[a2, b1, a1]), &posted).is_ok());
        assert!(check(&Expect::Timeline, &tl(&[a1, a2]), &posted).is_err());
        assert!(check(&Expect::Timeline, &tl(&[message_id(0, 3)]), &posted).is_err());
        assert!(check(&Expect::Timeline, &tl(&[7]), &posted).is_err());
        let long: Vec<u64> = (0..=TIMELINE_LIMIT as u64)
            .rev()
            .map(|n| message_id(0, n))
            .collect();
        assert!(check(&Expect::Timeline, &tl(&long), &posted).is_err());
    }
}

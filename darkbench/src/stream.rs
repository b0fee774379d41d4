//! `stream_rt`: an open loop of independent speakers. Sessions arrive on a
//! seeded Poisson schedule; each `open`s, `push`es 10-frame chunks as its
//! audio is spoken, then `close_input`s. One generator thread issues every
//! due event and steps the engine whenever frames are queued; between
//! events it spin-waits rather than sleeps, so the OS's wake-up latency
//! never enters the measured latencies.

use crate::metrics::Values;
use crate::schedule::{chunks, poisson_arrivals, Chunk, PoolOrder};
use crate::serving::{self, Pool, Served, Steps};
use crate::setup::Setup;
use crate::spans::SpanLog;
use crate::stats::{Kind, Latencies};
use crate::Outcome;
use darkside_serve::{ServeConfig, SessionId, ShardedScheduler};
use std::collections::HashMap;

pub const VARIANT: &str = "csr90";
pub const POLICY: &str = "beam";
/// Session arrivals per second. Chosen so that the engine is busy a bit
/// under half of wall time on a 2-core host; the engine's speed, not the
/// load, is what later changes should move.
pub const RATE_PER_S: f64 = 45.0;
/// Queued frames at the end of the arrival window beyond this many
/// seconds of offered audio mean the engine fell behind: overload.
const BACKLOG_LIMIT_S: f64 = 0.5;
/// A drain longer than this after the last chunk was due is overload too.
const DRAIN_LIMIT_NS: u64 = 1_000_000_000;

struct Session {
    utt: usize,
    arrival_ns: u64,
    chunks: Vec<Chunk>,
    id: Option<SessionId>,
    pushed: usize,
    covered: usize,
    failed: bool,
    done: bool,
}

enum Event {
    Open(usize),
    Chunk(usize, usize),
}

/// Drive one arrival window of `window_ns` plus its drain.
pub fn run(
    setup: &Setup,
    window_ns: u64,
    seed: u64,
    log: &mut SpanLog,
    layers: Option<&mut Values>,
    threads: usize,
) -> Outcome {
    let bundle = setup.bundle(VARIANT);
    let mut pool = Pool::new(&setup.pipeline.corpus, bundle);
    let cfg = ServeConfig::default()
        .with_shards(1)
        .with_workers(threads)
        .with_max_sessions(1 << 16)
        .with_max_queue_frames(1 << 24)
        .with_max_batch_frames(1024)
        .with_degrade_fraction(1.0);
    let mut engine = ShardedScheduler::build(bundle.clone(), cfg).expect("engine build");

    let mut order = PoolOrder::new(serving::POOL, seed ^ 0x0DE5);
    let mut sessions: Vec<Session> = poisson_arrivals(RATE_PER_S, window_ns, seed)
        .into_iter()
        .map(|arrival_ns| {
            let utt = order.draw();
            Session {
                utt,
                arrival_ns,
                chunks: chunks(arrival_ns, pool.utts[utt].frames.len()),
                id: None,
                pushed: 0,
                covered: 0,
                failed: false,
                done: false,
            }
        })
        .collect();
    let mut events: Vec<(u64, Event)> = Vec::new();
    for (s, sess) in sessions.iter().enumerate() {
        events.push((sess.arrival_ns, Event::Open(s)));
        for (k, c) in sess.chunks.iter().enumerate() {
            events.push((c.due_ns, Event::Chunk(s, k)));
        }
    }
    // Stable: at equal due times an open precedes its chunks.
    events.sort_by_key(|(due, _)| *due);
    let offered_frames: usize = sessions.iter().map(|s| pool.utts[s.utt].frames.len()).sum();
    let backlog_limit = offered_frames as f64 / (window_ns as f64 / 1e9) * BACKLOG_LIMIT_S;

    let base = log.now();
    let mut out = Outcome::new(base);
    let mut steps = Steps::default();
    let mut served = Served::default();
    let mut lag = Latencies::default();
    let mut by_id: HashMap<SessionId, usize> = HashMap::new();
    let mut live: Vec<usize> = Vec::new();
    let mut backlog_end: Option<usize> = None;
    let mut next = 0;
    let mut last_done = 0u64;
    let rel = |log: &SpanLog| log.now() - base;
    loop {
        let now = rel(log);
        if backlog_end.is_none() && now >= window_ns {
            backlog_end = Some(engine.queued_frames());
        }
        // Issue every event that is due.
        while next < events.len() && events[next].0 <= rel(log) {
            let (due, ref event) = events[next];
            next += 1;
            let t0 = log.now();
            lag.push((t0 - base - due) as f64 / 1e6);
            match *event {
                Event::Open(s) => {
                    let sess = &mut sessions[s];
                    let frames = pool.utts[sess.utt].frames.len();
                    let opened = engine.open(frames);
                    let t1 = log.now();
                    log.record("open", s as u64, None, t0, t1);
                    out.w.work(0, t1 - t0);
                    out.attempted += 1;
                    match opened {
                        Ok(r) => {
                            sess.id = Some(r.id());
                            by_id.insert(r.id(), s);
                            live.push(s);
                        }
                        Err(e) => {
                            eprintln!("open rejected: {e}");
                            sess.failed = true;
                        }
                    }
                }
                Event::Chunk(s, k) => {
                    let sess = &mut sessions[s];
                    let Some(id) = sess.id else { continue };
                    let c = sess.chunks[k];
                    let frames = pool.utts[sess.utt].frames[c.start..c.end].to_vec();
                    let pushed = engine.push(id, frames);
                    let t1 = log.now();
                    log.record("push", s as u64, None, t0, t1);
                    out.w.work(0, t1 - t0);
                    if let Err(e) = pushed {
                        eprintln!("push rejected: {e}");
                        sess.failed = true;
                    }
                    sess.pushed = k + 1;
                    if k + 1 == sess.chunks.len() {
                        let t2 = log.now();
                        engine.close_input(id);
                        let t3 = log.now();
                        log.record("close_input", s as u64, None, t2, t3);
                        out.w.work(0, t3 - t2);
                    }
                }
            }
        }
        // Step while frames are queued, and once input has ended until
        // every live session has been reaped.
        if engine.queued_frames() > 0 || (next == events.len() && !live.is_empty()) {
            let stepped = steps.step(&mut engine, log, &mut out.w);
            let t_end = stepped - base;
            // Partials: which pushed chunks do the hypotheses now cover?
            let t0 = log.now();
            for &s in &live {
                let sess = &mut sessions[s];
                if sess.covered == sess.pushed {
                    continue;
                }
                let Some(p) = engine.partial(sess.id.expect("live sessions are open")) else {
                    continue;
                };
                while sess.covered < sess.pushed && sess.chunks[sess.covered].end <= p.frames {
                    let due = sess.chunks[sess.covered].due_ns;
                    out.w
                        .latency(Kind::Partial, stepped, (t_end - due) as f64 / 1e6);
                    sess.covered += 1;
                }
            }
            let t1 = log.now();
            log.record("partial", steps.count, None, t0, t1);
            out.w.work(0, t1 - t0);
            let results = engine.take_completed();
            let t2 = log.now();
            log.record("take_completed", steps.count, None, t1, t2);
            out.w.work(0, t2 - t1);
            for r in results {
                let s = by_id[&r.id];
                let sess = &mut sessions[s];
                sess.done = true;
                last_done = t_end;
                let ok = if sess.failed {
                    out.failed += 1;
                    false
                } else {
                    serving::check(&mut pool, sess.utt, &r, &mut out, &mut served)
                };
                for c in &sess.chunks[sess.covered..] {
                    if ok {
                        out.w
                            .latency(Kind::Partial, stepped, (t_end - c.due_ns) as f64 / 1e6);
                    } else {
                        out.w.fail(Kind::Partial, stepped);
                    }
                }
                sess.covered = sess.chunks.len();
                let final_due = sess.chunks.last().map_or(sess.arrival_ns, |c| c.due_ns);
                if ok {
                    out.w
                        .latency(Kind::Final, stepped, (t_end - final_due) as f64 / 1e6);
                } else {
                    out.w.fail(Kind::Final, stepped);
                }
            }
            live.retain(|&s| !sessions[s].done);
        } else if next < events.len() {
            // Nothing queued: spin until the next event is due.
            let due = base + events[next].0;
            let t0 = log.now();
            while log.now() < due {
                std::hint::spin_loop();
            }
            log.record("idle", 0, None, t0, log.now());
        } else {
            break;
        }
    }
    out.wall_ns = rel(log);
    // Sessions rejected at open never reach the engine.
    for sess in sessions.iter().filter(|s| s.id.is_none()) {
        out.failed += 1;
        let at = base + sess.arrival_ns;
        out.w.fail(Kind::Final, at);
        sess.chunks
            .iter()
            .for_each(|_| out.w.fail(Kind::Partial, at));
    }
    let last_due = events.last().map_or(0, |e| e.0);
    let drain_ns = last_done.saturating_sub(last_due);
    let backlog = backlog_end.unwrap_or(0);
    if backlog as f64 > backlog_limit || drain_ns > DRAIN_LIMIT_NS {
        // Beyond capacity the latencies measure the backlog, not the
        // engine: report every session as a miss.
        eprintln!(
            "overload: {backlog} frames queued at window end, drain {:.3} s",
            drain_ns as f64 / 1e9
        );
        out.overload = true;
        out.failed = out.attempted;
        out.w.miss_all();
    }
    if let Some(layers) = layers {
        serving::layers(
            layers,
            &engine,
            log,
            &steps,
            &served,
            (base, out.wall_ns),
            VARIANT,
            POLICY,
        );
        layers.set("bench.gen_lag_p50_ms", lag.percentile(0.50));
        layers.set("bench.gen_lag_p99_ms", lag.percentile(0.99));
        layers.set("bench.backlog_frames_end", backlog as f64);
        layers.set("bench.drain_s", drain_ns as f64 / 1e9);
        out.unaccounted_pct = serving::unaccounted_pct(
            log,
            &[
                "open",
                "push",
                "close_input",
                "step",
                "partial",
                "take_completed",
                "idle",
            ],
            (base, out.wall_ns),
        );
    }
    out
}

//! Reading the program's existing `fmm-trace` spans: in-process rings
//! via `TraceSink`, and a shard's flushed Chrome-trace file. The
//! benchmark adds no spans to the program; its own spans are the
//! request samples of [`crate::drive::Sample`], on the same clock.

use fmm_trace::{SpanKind, TraceSink, RING_CAPACITY};
use serde::Value;
use std::path::Path;

/// One thread's records: `(kind, start_ns, end_ns)`.
pub struct Track {
    pub label: String,
    /// The ring wrapped, so records before the first one kept are lost.
    pub overflowed: bool,
    pub recs: Vec<(SpanKind, u64, u64)>,
}

pub fn from_sink(sink: &TraceSink) -> Vec<Track> {
    sink.tracks
        .iter()
        .map(|t| Track {
            label: t.label.clone(),
            overflowed: t.dropped > 0,
            recs: t
                .records
                .iter()
                .map(|r| (r.kind, r.t_start, r.t_end))
                .collect(),
        })
        .collect()
}

/// Tracks of every `trace-shard-*.json` file in `dir`.
pub fn from_shard_files(dir: &Path) -> Vec<Track> {
    let mut tracks = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return tracks;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("trace-shard-") && name.ends_with(".json") {
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                tracks.extend(from_chrome_json(&text));
            }
        }
    }
    tracks
}

fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parse the array `TraceSink::export_chrome_json` writes. Timestamps
/// are microseconds; they come back as nanoseconds (to within the
/// precision of an `f64` epoch offset, well under a microsecond).
pub fn from_chrome_json(json: &str) -> Vec<Track> {
    let Ok(Value::Array(events)) = serde_json::from_str::<Value>(json) else {
        return Vec::new();
    };
    let mut tracks: Vec<(u64, Track)> = Vec::new();
    let track = |tid: u64, tracks: &mut Vec<(u64, Track)>| -> usize {
        match tracks.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                tracks.push((
                    tid,
                    Track {
                        label: String::new(),
                        overflowed: false,
                        recs: Vec::new(),
                    },
                ));
                tracks.len() - 1
            }
        }
    };
    for e in &events {
        let tid = num(e, "tid").unwrap_or(0.0) as u64;
        match (text(e, "ph"), text(e, "name")) {
            (Some("M"), Some("thread_name")) => {
                let label = e.get("args").and_then(|a| text(a, "name")).unwrap_or("");
                let i = track(tid, &mut tracks);
                tracks[i].1.label = label.to_string();
            }
            (Some("X"), Some(name)) => {
                let (Some(kind), Some(ts), Some(dur)) =
                    (SpanKind::from_name(name), num(e, "ts"), num(e, "dur"))
                else {
                    continue;
                };
                let start = (ts * 1e3) as u64;
                let i = track(tid, &mut tracks);
                tracks[i]
                    .1
                    .recs
                    .push((kind, start, start + (dur * 1e3) as u64));
            }
            _ => {}
        }
    }
    tracks
        .into_iter()
        .map(|(_, mut t)| {
            t.overflowed = t.recs.len() >= RING_CAPACITY;
            t
        })
        .collect()
}

fn durations(tracks: &[Track], kind: SpanKind, window: (u64, u64)) -> Vec<u64> {
    tracks
        .iter()
        .flat_map(|t| &t.recs)
        .filter(|r| r.0 == kind && r.1 >= window.0 && r.2 <= window.1)
        .map(|r| r.2 - r.1)
        .collect()
}

/// Mean duration of the `kind` records inside `window`, in
/// microseconds (0 when there are none).
pub fn mean_us(tracks: &[Track], kind: SpanKind, window: (u64, u64)) -> f64 {
    let d = durations(tracks, kind, window);
    d.iter().sum::<u64>() as f64 / d.len().max(1) as f64 / 1e3
}

/// Median duration of the `kind` records inside `window`, in
/// microseconds (0 when there are none).
pub fn median_us(tracks: &[Track], kind: SpanKind, window: (u64, u64)) -> f64 {
    let mut d: Vec<f64> = durations(tracks, kind, window)
        .into_iter()
        .map(|x| x as f64 / 1e3)
        .collect();
    if d.is_empty() {
        return 0.0;
    }
    crate::report::median(&mut d)
}

/// Where the workers' time went while their engine served, from the
/// spans of the worker tracks. The five shares add up to one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shares {
    pub gemm: f64,
    pub additions: f64,
    pub combine: f64,
    pub park: f64,
    pub unaccounted: f64,
    /// Wall seconds during which some request was in flight.
    pub busy_s: f64,
}

/// Sorted, disjoint union of intervals, clipped to `[lo, hi]`.
fn union(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn overlap(u: &[(u64, u64)], s: u64, e: u64) -> u64 {
    let first = u.partition_point(|iv| iv.1 <= s);
    u[first..]
        .iter()
        .take_while(|iv| iv.0 < e)
        .map(|iv| iv.1.min(e).saturating_sub(iv.0.max(s)))
        .sum()
}

/// Slot of a span kind in [`worker_time`]: the three leaf kinds, then
/// park.
fn slot(kind: SpanKind) -> Option<usize> {
    match kind {
        SpanKind::BaseGemm | SpanKind::PeelGemm => Some(0),
        SpanKind::Additions => Some(1),
        SpanKind::Combine => Some(2),
        SpanKind::Park => Some(3),
        _ => None,
    }
}

/// Nanoseconds of `workers`' time inside `busy` spent in gemm,
/// additions, combine and park. At each instant a worker counts as
/// inside its own leaf span if it has one, else parked if it is, else
/// as helping with the leaf span another worker has open: a parallel
/// kernel records one span, on the thread that called it, while the
/// other workers run its pieces. The rest is unaccounted.
fn worker_time(workers: &[&Track], busy: &[(u64, u64)]) -> [u64; 4] {
    let mut events: Vec<(u64, usize, usize, i32)> = Vec::new();
    for (w, track) in workers.iter().enumerate() {
        for &(kind, s, e) in &track.recs {
            if let Some(k) = slot(kind) {
                events.push((s, w, k, 1));
                events.push((e, w, k, -1));
            }
        }
    }
    events.sort_unstable_by_key(|e| (e.0, e.3));
    let mut open = vec![[0i32; 4]; workers.len()];
    let mut time = [0u64; 4];
    for (i, &(t, w, k, delta)) in events.iter().enumerate() {
        open[w][k] += delta;
        let Some(next) = events.get(i + 1).map(|e| e.0) else {
            break;
        };
        let len = overlap(busy, t, next);
        if len == 0 {
            continue;
        }
        let own_leaf = |counts: &[i32; 4]| (0..3).find(|&k| counts[k] > 0);
        for (w, counts) in open.iter().enumerate() {
            let state = own_leaf(counts)
                .or_else(|| (counts[3] > 0).then_some(3))
                .or_else(|| {
                    open.iter()
                        .enumerate()
                        .filter(|&(o, _)| o != w)
                        .find_map(|(_, c)| own_leaf(c))
                });
            if let Some(k) = state {
                time[k] += len;
            }
        }
    }
    time
}

/// Shares of worker time while requests were in flight.
///
/// `requests` are the serving intervals, tagged with the engine that
/// served them (the dtype, for in-process engines); each engine has
/// `width` workers. A worker track belongs to the engine during whose
/// requests it did leaf work or stole. The shares divide that engine's
/// workers' time (see [`worker_time`]) by its busy wall time × `width`.
/// Everything is clipped to `window` and to after the last ring wrap
/// of any worker track.
pub fn shares(
    tracks: &[Track],
    requests: &[(u8, u64, u64)],
    window: (u64, u64),
    width: usize,
) -> Shares {
    let workers: Vec<&Track> = tracks
        .iter()
        .filter(|t| t.label.starts_with("fmm-worker-"))
        .collect();
    let lo = workers
        .iter()
        .filter(|t| t.overflowed)
        .filter_map(|t| t.recs.first().map(|r| r.1))
        .fold(window.0, u64::max);
    let hi = window.1;

    let mut groups: Vec<u8> = requests.iter().map(|r| r.0).collect();
    groups.sort_unstable();
    groups.dedup();
    let unions: Vec<Vec<(u64, u64)>> = groups
        .iter()
        .map(|g| {
            union(
                requests
                    .iter()
                    .filter(|r| r.0 == *g)
                    .map(|r| (r.1, r.2))
                    .collect(),
                lo,
                hi,
            )
        })
        .collect();
    let activity = |t: &Track, u: &[(u64, u64)]| -> u64 {
        t.recs
            .iter()
            .map(|r| match r.0 {
                SpanKind::Steal => u64::from(overlap(u, r.1, r.1 + 1) > 0),
                k if k.is_leaf_work() => overlap(u, r.1, r.2),
                _ => 0,
            })
            .sum()
    };
    let engine_of: Vec<Option<usize>> = workers
        .iter()
        .map(|t| {
            (0..unions.len())
                .map(|g| (activity(t, &unions[g]), g))
                .max()
                .filter(|a| a.0 > 0)
                .map(|a| a.1)
        })
        .collect();

    let mut time = [0u64; 4];
    let mut busy_ns = 0u64;
    for (g, u) in unions.iter().enumerate() {
        busy_ns += u.iter().map(|iv| iv.1 - iv.0).sum::<u64>();
        let members: Vec<&Track> = workers
            .iter()
            .zip(&engine_of)
            .filter(|(_, e)| **e == Some(g))
            .map(|(t, _)| *t)
            .collect();
        for (total, t) in time.iter_mut().zip(worker_time(&members, u)) {
            *total += t;
        }
    }
    let denom = (busy_ns * width as u64).max(1) as f64;
    let [gemm, additions, combine, park] = time.map(|t| t as f64 / denom);
    Shares {
        gemm,
        additions,
        combine,
        park,
        unaccounted: 1.0 - gemm - additions - combine - park,
        busy_s: busy_ns as f64 * 1e-9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(recs: Vec<(SpanKind, u64, u64)>) -> Track {
        Track {
            label: "fmm-worker-0".into(),
            overflowed: false,
            recs,
        }
    }

    #[test]
    fn shares_divide_each_engines_worker_time() {
        // Engine 0 serves 0..100, engine 1 serves 100..200; one worker
        // each.
        let requests = [(0u8, 0u64, 100u64), (1, 100, 200)];
        let tracks = [
            worker(vec![
                (SpanKind::BaseGemm, 0, 60),
                (SpanKind::Additions, 60, 80),
                (SpanKind::Park, 80, 200), // idle while engine 1 serves
            ]),
            worker(vec![
                (SpanKind::Park, 0, 100),
                (SpanKind::BaseGemm, 100, 190),
            ]),
        ];
        let s = shares(&tracks, &requests, (0, 200), 1);
        assert!((s.gemm - 150.0 / 200.0).abs() < 1e-12);
        assert!((s.additions - 20.0 / 200.0).abs() < 1e-12);
        // Only the 20 ns worker 0 parked during its own engine's busy time.
        assert!((s.park - 20.0 / 200.0).abs() < 1e-12);
        assert!((s.unaccounted - 10.0 / 200.0).abs() < 1e-12);
        // A ring that wrapped at 150 moves the window's start there.
        let mut late = tracks;
        late[1].overflowed = true;
        late[1].recs.retain(|r| r.1 >= 100);
        late[1].recs[0].1 = 150;
        let s = shares(&late, &requests, (0, 200), 1);
        assert!((s.gemm - 40.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn a_helper_of_a_parallel_kernel_counts_toward_its_kind() {
        // One request on a 2-worker engine: worker 0 runs a parallel
        // gemm under one span; worker 1 steals a piece of it, runs it
        // until 50, then parks.
        let requests = [(0u8, 0u64, 100u64)];
        let tracks = [
            worker(vec![(SpanKind::BaseGemm, 0, 100)]),
            worker(vec![(SpanKind::Steal, 1, 1), (SpanKind::Park, 50, 100)]),
        ];
        let s = shares(&tracks, &requests, (0, 100), 2);
        assert!((s.gemm - 150.0 / 200.0).abs() < 1e-12);
        assert!((s.park - 50.0 / 200.0).abs() < 1e-12);
        assert!(s.unaccounted.abs() < 1e-12);
    }

    #[test]
    fn chrome_round_trip_keeps_labels_and_durations() {
        let json = r#"[
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"fmm-worker-0"}},
{"name":"base_gemm","cat":"fmm","ph":"X","ts":1000.500,"dur":2.250,"pid":1,"tid":3,"args":{"payload":0}},
{"name":"steal","cat":"fmm","ph":"i","s":"t","ts":1001.000,"pid":1,"tid":3,"args":{"payload":1}}
]"#;
        let tracks = from_chrome_json(json);
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].label, "fmm-worker-0");
        assert_eq!(
            tracks[0].recs,
            vec![(SpanKind::BaseGemm, 1_000_500, 1_002_750)]
        );
        assert_eq!(mean_us(&tracks, SpanKind::BaseGemm, (0, u64::MAX)), 2.25);
        assert_eq!(
            mean_us(&tracks, SpanKind::BaseGemm, (1_000_600, u64::MAX)),
            0.0
        );
    }
}
